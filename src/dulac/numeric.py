"""The float layer: high-precision floating point via mpmath.

All numeric (non-exact) evaluation in the library runs at FLOAT_PRECISION
bits of mantissa.  Values returned by these helpers are mpmath mpf/mpc
objects, which are immutable and keep the precision they were created with;
the raw_* arithmetic takes and returns raw mpmath.libmp values, and one
kernel, _round, rounds the exact results of raw_add, raw_mul and the root
kernel to nearest at FLOAT_PRECISION bits, ties to even, as mpmath's
normalization rounds them.  Besides the weighted coefficient norm, this
layer places the roots of the characteristic polynomial for the splitting
conditions (check_conditions); the exact layers never import it.

Every int or Fraction enters the layer through raw_rational, rounded down to
FLOAT_PRECISION bits as mpmathify rounds a Fraction, and every root
sqrt(num / den) of an exact rational comes from one int kernel,
_sqrt_rational, with the two roundings of mpf_sqrt(from_rational(num, den,
128), 128, round_nearest): the quotient truncated to 128 bits, then the root
from math.isqrt, with a sticky bit when inexact, rounded by _round.  An
exact value reported as a double, the gap margin, is converted by
scalars.to_double, which decides the double range for every layer.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from math import isqrt

import mpmath
from mpmath.libmp import (
    fone, from_rational, fzero, mpf_abs, mpf_add, mpf_cmp, mpf_div, mpf_mul, mpf_pow_int, mpf_sub,
    round_nearest, to_float,
)

from .errors import IndeterminateRoot
from .scalars import decimal_rational, to_double
from .tpoly import TPoly

FLOAT_PRECISION = 128
ROOT_BAND = Fraction(1, 10**20)


def _round(sign: int, man: int, exp: int) -> tuple:
    """The raw value (-1)^sign man 2^exp, for an int man > 0, rounded to
    nearest at FLOAT_PRECISION bits, ties to even, with its trailing zero
    bits stripped: bit for bit what mpmath's normalize makes of it."""
    n = man.bit_length() - FLOAT_PRECISION
    if n > 0:
        t = man >> (n - 1)
        man = (t >> 1) + 1 if t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1)) else t >> 1
        exp += n
    if not man & 1:
        zeros = (man & -man).bit_length() - 1
        man >>= zeros
        exp += zeros
    return sign, man, exp, man.bit_length()


# Arithmetic on raw mpmath.libmp values at FLOAT_PRECISION bits, rounding to
# nearest as mpf arithmetic inside mpmath.workprec(FLOAT_PRECISION) does,
# whatever the caller's mpmath context; by_value is the max/sort key of raw
# values.  Plain positional calls, cheaper than keyword functools.partials.
# raw_add and raw_mul form the exact sum or product of two nonzero values and
# round it once with _round; a zero, a special value, a sum of opposite signs
# or one across an exponent gap over 100 binades (which mpf_add perturbs
# rather than adds) goes to mpmath.
def raw_add(x: tuple, y: tuple) -> tuple:
    sign, xman, xexp, _ = x
    ysign, yman, yexp, _ = y
    if xman and yman and sign == ysign:
        gap = xexp - yexp
        if 0 <= gap <= 100:
            return _round(sign, (xman << gap) + yman, yexp)
        if -100 <= gap < 0:
            return _round(sign, (yman << -gap) + xman, xexp)
    return mpf_add(x, y, FLOAT_PRECISION, round_nearest)


def raw_mul(x: tuple, y: tuple) -> tuple:
    xsign, xman, xexp, _ = x
    ysign, yman, yexp, _ = y
    if xman and yman:
        return _round(xsign ^ ysign, xman * yman, xexp + yexp)
    return mpf_mul(x, y, FLOAT_PRECISION, round_nearest)


def raw_div(x: tuple, y: tuple) -> tuple:
    return mpf_div(x, y, FLOAT_PRECISION, round_nearest)


def raw_pow(x: tuple, n: int) -> tuple:
    return mpf_pow_int(x, n, FLOAT_PRECISION, round_nearest)


by_value = cmp_to_key(mpf_cmp)


def raw_rational(x) -> tuple:
    """An int or Fraction x as a raw value at FLOAT_PRECISION bits, rounded
    down: from_rational at its default rounding, as mpmathify reads a
    Fraction inside mpmath.workprec(FLOAT_PRECISION) (an int wider than
    FLOAT_PRECISION bits, which mpmathify keeps exact, is rounded down too).
    Rounding to nearest instead would change about half of the inexact reads.
    Every exact value enters the float layer here."""
    return from_rational(x.numerator, x.denominator, FLOAT_PRECISION)


@lru_cache(maxsize=256)
def _sqrt_rational(num: int, den: int) -> tuple:
    """sqrt(num / den) for ints num >= 0, den > 0 as a raw mpf value, bit for
    bit mpf_sqrt(from_rational(num, den, 128), 128, round_nearest).  The
    memo is keyed on the int pair, hashed in C; norms meet the same pair often."""
    if not num:
        return fzero
    # num / den truncated to man * 2^-exp with a 128-bit man, as
    # from_rational's default rounding (round down) leaves it
    exp = FLOAT_PRECISION + den.bit_length() - num.bit_length()
    man = (num << exp) // den if exp >= 0 else (num >> -exp) // den
    if man >> FLOAT_PRECISION:
        man >>= 1
        exp -= 1
    # mpf_sqrt: the 128-bit man shifted to 2 prec + 4 bits (one more at an
    # odd exp, so that the exponent under the root is even), and a sticky
    # bit when the root is inexact, then one rounding to nearest
    shift = FLOAT_PRECISION + 4 + (exp & 1)
    man <<= shift
    root = isqrt(man)
    if root * root != man:
        root = 2 * root + 1
        shift += 2
    return _round(0, root, -(exp + shift) // 2)


@lru_cache(maxsize=16)
def _norm_powers(num: int, den: int) -> list:
    """[R^0, R^1, ...] as raw mpf values for R = num / den in lowest terms:
    R read by raw_rational, each further power the one before times R,
    rounded with raw_mul.  raw_poly_norm extends the list to the longest
    polynomial it weighs.  The key is ints, whose hash is computed in
    C, not the Fraction R, whose hash is not."""
    return [fone, raw_rational(Fraction(num, den))]


def raw_poly_norm(p: TPoly, powers: list) -> tuple:
    """sum |a_j| R^j as a raw value, for the powers of R from _norm_powers.

    Each |a_j| is the root _sqrt_rational rounds from the exact
    (re_j^2 + im_j^2) / den^2, and the sum runs with raw_add and raw_mul,
    leaving out the exact steps |a_0| * 1 and 0 + the first term."""
    while len(powers) < len(p.re):
        powers.append(raw_mul(powers[-1], powers[1]))
    den2, im = p.den * p.den, p.im
    acc = None
    for j, x in enumerate(p.re):
        sq = x * x + im[j] * im[j] if im else x * x
        if sq:
            term = raw_mul(_sqrt_rational(sq, den2), powers[j]) if j else _sqrt_rational(sq, den2)
            acc = raw_add(acc, term) if acc else term
    return acc or fzero


def norm_powers(R) -> list:
    """The powers of R that raw_poly_norm weighs with, R read as
    decimal_rational reads it.  R must exceed 1 so that the norm is monotone
    in the degree direction and submultiplicative."""
    Rq = decimal_rational(R)
    if Rq <= 1:
        raise ValueError(f"weight R must exceed 1, got {R}")
    return _norm_powers(Rq.numerator, Rq.denominator)


def poly_norm(p: TPoly, R) -> mpmath.mpf:
    """Weighted coefficient norm: sum of |a_j| R^j over the coefficients,
    raw_poly_norm's sum for the powers of R from norm_powers."""
    return mpmath.mp.make_mpf(raw_poly_norm(p, norm_powers(R)))


def roots_of_L(L: TPoly) -> list:
    """Roots of the characteristic polynomial as mpc values.

    Each coefficient is read from L's int fields by from_rational at
    FLOAT_PRECISION bits, rounded down as raw_rational rounds it.  Degrees 1
    and 2 use closed forms, higher degrees a numeric companion solve at
    FLOAT_PRECISION.  The closed forms stay because they fix the order of
    the roots, which analysis.json records: mpmath.polyroots returns many
    degree-2 roots in the other order.
    """
    d = L.degree
    if d < 1:
        return []
    den, make_mpc = L.den, mpmath.mp.make_mpc
    with mpmath.workprec(FLOAT_PRECISION):
        cs = [make_mpc((from_rational(x, den, FLOAT_PRECISION), from_rational(y, den, FLOAT_PRECISION)))
              for x, y in zip(L.re, L.im or (0,) * len(L.re))]
        if d == 1:
            return [-cs[0] / cs[1]]
        if d == 2:
            a, b, c = cs[2], cs[1], cs[0]
            disc = mpmath.sqrt(b * b - 4 * a * c)
            return [(-b + disc) / (2 * a), (-b - disc) / (2 * a)]
        return list(mpmath.polyroots(list(reversed(cs)), maxsteps=200, extraprec=64))


class ConditionReport(namedtuple(
        "ConditionReport", "roots_ok gap_ok root_margin gap_margin minimal_m roots")):
    """Solvability conditions for splitting the solution at the last prefix
    term: roots_ok, every root of L lies left of Re lambda_m; gap_ok,
    Re lambda_m > max Re nu_j + 2 tau; their float margins (or None);
    minimal_m, the least prefix index where roots_ok and gap_ok hold (or
    None); and the roots of L."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "roots_ok": self.roots_ok,
            "gap_ok": self.gap_ok,
            # analysis.json keeps the key of a condition no command evaluates
            "next_ok": None,
            "root_margin": self.root_margin,
            "gap_margin": self.gap_margin,
            "minimal_m": self.minimal_m,
            "roots": [[float(mpmath.re(r)), float(mpmath.im(r))] for r in self.roots],
        }


def check_conditions(lin, prefix_exponents, s) -> ConditionReport:
    """Evaluate the splitting conditions of a solver.LinearData lin at the
    last prefix exponent, for the growth order s.

    The roots are placed once.  The least root margin Re lambda - Re zeta
    over the roots is one subtraction, Re lambda - top for the largest real
    part top of the roots, at FLOAT_PRECISION bits rounding to nearest:
    rounding is monotone, so it has the bits of the least rounded margin.
    Raises IndeterminateRoot when that margin at the last exponent lies
    within ROOT_BAND of zero: either more precision is required or the
    configuration is genuinely resonant.  Both margins of the report are
    doubles, inf with its sign past the double range.
    """
    if not prefix_exponents:
        raise ValueError("check_conditions: prefix must contain at least one term")
    roots = roots_of_L(lin.L)
    top = max((r.real._mpf_ for r in roots), key=by_value, default=None)
    tau = lin.tau_re(s)
    sec_res = [e.re_mid for e in lin.nu_sec if e is not None]
    bound = max(sec_res) + 2 * tau if sec_res else None
    band = raw_rational(ROOT_BAND)
    minimal_m = margin = None
    for i, lam in enumerate(prefix_exponents, start=1):
        lam_re = lam.re_mid
        if top is not None:
            margin = mpf_sub(raw_rational(lam_re), top, FLOAT_PRECISION, round_nearest)
        # roots_ok: every margin at least ROOT_BAND; a smaller one fails
        roots_ok = margin is None or mpf_cmp(margin, band) >= 0
        gap_ok = bound is None or lam_re > bound
        if minimal_m is None and roots_ok and gap_ok:
            minimal_m = i
    if margin is not None and mpf_cmp(mpf_abs(margin), band) < 0:
        raise IndeterminateRoot(
            f"check_conditions: a root of L has real part within 1e-20 of "
            f"Re lambda_m = {lam_re}; raise precision or treat as resonant"
        )
    return ConditionReport(
        roots_ok=roots_ok,
        gap_ok=gap_ok,
        # written as float(mpf) writes an mpf: rounded to nearest
        root_margin=None if margin is None else to_float(margin, rnd=round_nearest),
        gap_margin=None if bound is None else to_double(lam_re - bound),
        minimal_m=minimal_m,
        roots=tuple(roots),
    )
