"""Growth classification of solved coefficient sequences.

The coefficient polynomials of a solved series are expected to grow no
faster than C * A^k * |Gamma(lambda_k / s)| in the weighted norm, where the
order parameter s comes from the linearization (LinearData.slope): s = +inf
when the top derivative participates in the leading data (A_n != 0, the
convergent case), and otherwise

    s = min over j > ell of (Re nu_j - Re nu) / (j - ell).

classify() normalizes the observed norms, fits the smallest geometric
envelope over the data, and reports a verdict.  The fit is descriptive: the
envelope holds for the recorded k by construction, so the value of the
report is in the fitted constants, not the boolean.

The rows, the fit and the envelope run on raw mpmath.libmp values at
FLOAT_PRECISION bits, rounding as mpf arithmetic inside
mpmath.workprec(FLOAT_PRECISION) does, whatever the caller's mpmath context;
an int or Fraction (an abscissa, or a rho given to fit_growth) enters through
numeric.raw_rational, and mpfs are built only for the reported values.  Each
power A^x is computed once, for the fit and the envelope both.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

import mpmath
from mpmath.libmp import fone, from_float, fzero, mpf_cmp, mpf_pow, round_nearest

from .gammafn import gamma_abs
from .numeric import FLOAT_PRECISION, norm_powers, raw_div, raw_mul, raw_poly_norm, raw_rational
from .scalars import ExactScalar, to_double
from .series import INF, serialize_s

_mpf = mpmath.mp.make_mpf
CSV_COLUMNS = ["k", "re_lambda", "im_lambda", "deg_c", "norm_R", "gamma_abs", "rho", "envelope_Ck"]


# norm_R, gamma and rho are mpf; gamma is 1 in the convergent case
RhoRow = namedtuple("RhoRow", "k re_lambda im_lambda deg_c norm_R gamma rho")


def _rows(terms, s, R) -> list:
    """rho_k = ||c_k||_R / |Gamma(lambda_k / s)| for the k-th of terms, with
    |Gamma| = 1 when s = +inf, on raw values: mpfs are built only for the
    fields of the rows."""
    powers = norm_powers(R)
    rows = []
    for k, (lam, c) in enumerate(terms, start=1):
        g = fone if s == INF else gamma_abs(ExactScalar(lam.re_mid / s, lam.im_mid / s))._mpf_
        nr = raw_poly_norm(c, powers)
        rows.append(RhoRow(k, lam.re_mid, lam.im_mid, c.degree, _mpf(nr), _mpf(g), _mpf(raw_div(nr, g))))
    return rows


def normalized_coeffs(terms, s, R) -> list:
    """Gamma-normalized norm table rho_k = ||c_k||_R / |Gamma(lambda_k / s)|.

    terms are (Exponent, TPoly) pairs of a solved series, k is their 1-based
    position.  Requires finite s > 0 and Re(lambda_k / s) > 0 for every k.
    """
    if s == INF:
        raise ValueError("normalized_coeffs: use the geometric envelope for s = +inf")
    s_q = Fraction(s)
    if s_q <= 0:
        raise ValueError(f"normalized_coeffs: s must be positive, got {s}")
    return _rows(terms, s_q, R)


def _fit(rhos, xs) -> tuple:
    """fit_growth on raw values, with the power A^x at every entry, zero or
    not, each int or Fraction abscissa read by raw_rational: (C, A, k_C,
    k_A, powers)."""
    vals = [(k, x, r) for k, (x, r) in enumerate(zip(xs, rhos), start=1) if r != fzero]
    A, k_A = fone, None
    for (k1, x1, r1), (_, x2, r2) in zip(vals, vals[1:]):
        if x2 != x1:
            ratio = mpf_pow(raw_div(r2, r1), raw_div(fone, raw_rational(x2 - x1)), FLOAT_PRECISION, round_nearest)
            if mpf_cmp(ratio, A) > 0:
                A, k_A = ratio, k1
    powers = [mpf_pow(A, raw_rational(x), FLOAT_PRECISION, round_nearest) for x in xs]
    C, k_C = fzero, None
    for k, _, r in vals:
        c = raw_div(r, powers[k - 1])
        if mpf_cmp(c, C) > 0:
            C, k_C = c, k
    return C, A, k_C, k_A, powers


def fit_growth(rhos, abscissae=None) -> tuple:
    """Smallest geometric envelope C * A^x over the observed sequence.

    The abscissae x default to the positions k = 1, 2, ...  A_fit is the
    largest growth ratio (rho_b / rho_a)^(1 / (x_b - x_a)) between
    consecutive nonzero entries, clamped below at 1; entries of equal
    abscissa have no gap to grow over and give no ratio.  C_fit = max rho /
    A_fit^x.  Returns (C_fit, A_fit, k_C, k_A) with the positions achieving
    each maximum (1-based, k_A of the ratio's left endpoint; None when there
    is no ratio above 1).  An mpf rho is read as is, a float exactly and an
    int or Fraction by raw_rational, so the result does not depend on the
    caller's mpmath precision.
    """
    xs = range(1, len(rhos) + 1) if abscissae is None else abscissae
    raw = [r._mpf_ if isinstance(r, mpmath.mpf) else from_float(r) if isinstance(r, float) else raw_rational(r)
           for r in rhos]
    C, A, k_C, k_A, _ = _fit(raw, xs)
    return _mpf(C), _mpf(A), k_C, k_A


class GevreyReport(namedtuple("GevreyReport", "s rows C_fit A_fit R_used verdict radius_estimate envelope")):
    """The fit of classify: order s (a Fraction or +inf), the RhoRows, the
    envelope constants C_fit and A_fit (mpf), the Fraction R_used, the
    verdict (GevreyBounded, ConvergentCandidate or Inconclusive),
    radius_estimate, 1/A_fit in the convergent case and None otherwise, and
    envelope, C_fit * A_fit^x at each row (mpf), from the powers of the fit."""

    __slots__ = ()

    def envelope_at(self, row: RhoRow):
        """The envelope at one of the report's rows."""
        return self.envelope[row.k - 1]

    def to_json(self) -> dict:
        return {
            "s": serialize_s(self.s),
            "R": to_double(self.R_used),
            "C_fit": float(self.C_fit),
            "A_fit": float(self.A_fit),
            "verdict": self.verdict,
            "radius_estimate": None if self.radius_estimate is None else float(self.radius_estimate),
            "rows": [
                {
                    "k": r.k,
                    "re_lambda": to_double(r.re_lambda),
                    "im_lambda": to_double(r.im_lambda),
                    "deg_c": r.deg_c,
                    "norm_R": float(r.norm_R),
                    "gamma_abs": float(r.gamma),
                    "rho": float(r.rho),
                    "envelope_Ck": float(self.envelope_at(r)),
                }
                for r in self.rows
            ],
        }


def classify(state, s, R) -> GevreyReport:
    """Fit a growth envelope for a solved state and render a verdict.

    Finite s: rho_k = ||c_k||_R / |Gamma(lambda_k/s)| is fitted against
    C * A^k.  Infinite s (convergent candidate): the plain norms are fitted
    against C * A^{Re lambda_k}, with growth ratios taken between consecutive
    terms of distinct real part, giving 1/A as a lower estimate of the
    radius.  Fewer than three terms is Inconclusive unless the residual is
    identically zero below the cutoff (a terminating solution).
    """
    terms, R_q = state.solution.terms, Fraction(R)
    if s == INF:
        rows, verdict = _rows(terms, INF, R_q), "ConvergentCandidate"
    else:
        s = Fraction(s)
        rows, verdict = normalized_coeffs(terms, s, R_q), "GevreyBounded"
    # the x of the envelope C * A^x at a row: Re lambda_k when s = +inf, else k
    xs = [r.re_lambda if s == INF else r.k for r in rows]
    C, A, _, _, powers = _fit([r.rho._mpf_ for r in rows], xs)
    if len(rows) < 3 and not state.residual.is_zero():
        verdict = "Inconclusive"
    radius = _mpf(raw_div(fone, A)) if s == INF and rows else None
    envelope = tuple(_mpf(raw_mul(C, p)) for p in powers)
    return GevreyReport(s, tuple(rows), _mpf(C), _mpf(A), R_q, verdict, radius, envelope)
