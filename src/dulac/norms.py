"""Graded norms of multivariate tails and the checks of their estimates.

The graded norms

    ||g||_j = sum_m (|lambda_base + <m,r>| + Kcal |m|)^j / |Gamma(<m,r>/s)| * ||C_m||_R

measure tails (dulac.mseries.MSeries) in the scale of spaces used to run the
contraction argument.  The norms run on raw mpmath.libmp values at
FLOAT_PRECISION bits, whatever the caller's mpmath context (each exact value
read by numeric.raw_rational, each root from numeric._sqrt_rational), and
compute each per-m constant once (the weight only at a level j > 0).
check_lemma5/check_lemma6/majorant_bound evaluate both sides of the
corresponding operator estimates on concrete data; they are finite-data
consequences of the triangle inequality and norm submultiplicativity, so a
failed check indicates an implementation bug rather than bad input.
norm_trials runs them on seeded random data (the check-norms command).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache, lru_cache, reduce
from operator import add

import mpmath
from mpmath.libmp import fone, from_float, fzero

from .errors import PreconditionViolated
from .exponents import Exponent
from .gammafn import gamma_abs
from .mseries import MSeries, _canonical_terms, _multi_index
from .numeric import (
    _norm_powers, _sqrt_rational, by_value, raw_add, raw_div, raw_mul, raw_poly_norm, raw_pow, raw_rational,
)
from .scalars import ExactScalar, Value, decimal_rational, slot_setters
from .semigroup import Generators
from .series import INF
from .tpoly import TPoly

_mpf = mpmath.mp.make_mpf
# 1 + the slack absorbing directed rounding in 128-bit float sums; far below
# any genuine estimate violation, far above accumulated arithmetic error
_SLACK = raw_add(fone, from_float(1e-25))


class NormParams(Value):
    """Parameters of the graded norm: weight R, order s, degree constant
    Kcal, and the level j.  R, s and Kcal are read as decimal_rational reads
    them, so a float 2.1 is 21/10, as poly_norm and series cutoffs read it.
    Immutable; the hash, which keys the norm tables, is computed once."""

    __slots__ = ("R", "s", "Kcal", "j", "_hash")
    _fields = ("R", "s", "Kcal", "j")

    def __init__(self, R: Fraction, s: Fraction, Kcal: Fraction, j: int = 0):
        R, s, Kcal = decimal_rational(R), decimal_rational(s), decimal_rational(Kcal)
        if R <= 1:
            raise ValueError(f"NormParams: R must exceed 1, got {R}")
        if s <= 0:
            raise ValueError(f"NormParams: s must be positive and finite, got {s}")
        if Kcal < 0:
            raise ValueError(f"NormParams: Kcal must be nonnegative, got {Kcal}")
        if j < 0:
            raise ValueError(f"NormParams: level j must be nonnegative, got {j}")
        for set_slot, value in zip(_PARAMS_SETTERS, (R, s, Kcal, j, hash((R, s, Kcal, j)))):
            set_slot(self, value)

    def __hash__(self) -> int:
        return self._hash

    def degree_cap(self, m) -> Fraction:
        """Kcal |m|, the largest degree of C_m in the level spaces."""
        return self.Kcal * sum(m)

    def slope_gate(self, j: int) -> Fraction:
        """(j - level) s, the least Re<l,r> of check_lemma5's shift at j."""
        return Fraction(j - self.j) * self.s


_PARAMS_SETTERS = slot_setters(NormParams)


# -- graded norms and estimate checks ------------------------------------------


@lru_cache(maxsize=64)
def _gammas(gens: Generators, s: Fraction) -> tuple:
    """Memoized gamma(m) = |Gamma(<m,r>/s)| and the Gamma ratio ratio(a, b) =
    gamma(a) gamma(b) / gamma(a + b), shared by every _NormTable with these values."""

    @cache
    def gamma(m):
        e = gens.m_exponent(m)
        return gamma_abs(ExactScalar(e.re_mid / s, e.im_mid / s))._mpf_

    return gamma, cache(lambda a, b: raw_div(raw_mul(gamma(a), gamma(b)), gamma(tuple(map(add, a, b)))))


def _weight(gens: Generators, lambda_base: Exponent, Kcal: tuple, m) -> tuple:
    """|lambda_base + <m,r>| + Kcal |m| as a raw value, for a raw Kcal: the
    root _sqrt_rational takes of the exact |lambda_base + <m,r>|^2, plus
    raw_mul(Kcal, |m|)."""
    e = gens.m_exponent(m)
    re, im = lambda_base.re_mid + e.re_mid, lambda_base.im_mid + e.im_mid
    sq = re * re + im * im
    return raw_add(_sqrt_rational(sq.numerator, sq.denominator), raw_mul(Kcal, raw_rational(sum(m))))


class _NormTable:
    """The constants of one graded norm, shared through _table by every norm
    over these generators, base exponent and parameters (lambda_base is None
    for a caller that reads no weight): gamma and ratio of _gammas, the
    weight of m (_weight, computed once) to a power e, factor(m, j) =
    weight^j / gamma(m), the factor of ||C_m||_R in the level-j norm, and
    the powers of R that raw_poly_norm weighs ||C_m||_R with."""

    def __init__(self, gens: Generators, lambda_base: Exponent | None, p: NormParams):
        Kcal = raw_rational(p.Kcal)
        weight = cache(lambda m: _weight(gens, lambda_base, Kcal, m))
        self.gamma, self.ratio = _gammas(gens, p.s)
        self.weight_pow = lambda m, e: raw_pow(weight(m), e) if e else fone
        self.factor = cache(lambda m, j: raw_div(self.weight_pow(m, j), self.gamma(m)))
        self.powers = _norm_powers(p.R.numerator, p.R.denominator)


_table = lru_cache(maxsize=64)(_NormTable)


def h_norm(g: MSeries, p: NormParams, level: int | None = None) -> mpmath.mpf:
    """Graded norm at the given level (defaults to p.j)."""
    return _mpf(_raw_h_norm(g, p, p.j if level is None else level))


def _raw_h_norm(g: MSeries, p: NormParams, j: int) -> tuple:
    """The level-j norm as a raw value: the sum of factor(m, j) ||C_m||_R
    from the first term on, with no 0 + x step."""
    table = _table(g.gens, g.lambda_base, p)
    factor, powers = table.factor, table.powers
    terms = [raw_mul(factor(m, j), raw_poly_norm(c, powers)) for m, c in g.terms]
    return reduce(raw_add, terms) if terms else fzero


Lemma6Report = namedtuple("Lemma6Report", "lhs rhs C_used passed splits")


def check_lemma6(g1: MSeries, g2: MSeries, p: NormParams) -> Lemma6Report:
    """Product estimate ||g1 g2||_0 <= C ||g1||_0 ||g2||_0 on concrete data.

    C is the largest Gamma ratio |Gamma(<i,r>/s) Gamma(<m-i,r>/s) / Gamma(<m,r>/s)|
    over the splits realized by the stored terms (1 when there are none); it
    may lie below 1.
    """
    pairs = [(m1, m2) for m1, _ in g1.terms for m2, _ in g2.terms]
    ratio = _table(g1.gens, g1.lambda_base, p).ratio
    C_used = max((ratio(a, b) for a, b in pairs), key=by_value, default=fone)
    lhs = h_norm(g1 * g2, p, level=0)
    rhs = raw_mul(raw_mul(C_used, _raw_h_norm(g1, p, 0)), _raw_h_norm(g2, p, 0))
    passed = lhs <= _mpf(raw_mul(rhs, _SLACK))
    return Lemma6Report(lhs, _mpf(rhs), _mpf(C_used), passed, len(pairs))


Lemma5Report = namedtuple("Lemma5Report", "lhs bound A_tilde passed")


def check_lemma5(a: TPoly, l, j: int, g: MSeries, p: NormParams) -> Lemma5Report:
    """Operator estimate: a(t) X^l (lambda_base + hat_delta)^j maps level p.j
    to level 0 with a computable constant.

    Preconditions (PreconditionViolated otherwise):
      * deg a <= Kcal * |l|,
      * Re<l, r> >= (j - p.j) * s  (the slope gate; trivial when j <= p.j),
      * deg C_m <= Kcal * |m| for the stored terms of g (level membership).
    """
    l = _multi_index(l, g.gens.kappa, "check_lemma5: shift index", PreconditionViolated)
    cap, re_l, gate = p.degree_cap(l), g.gens.m_exponent(l).re_mid, p.slope_gate(j)
    if a.degree > cap:
        raise PreconditionViolated(f"check_lemma5: deg a = {a.degree} exceeds Kcal |l| = {cap}")
    if re_l < gate:
        raise PreconditionViolated(
            f"check_lemma5: Re<l,r> = {re_l} is below (j - level) s = {gate}; "
            "the operator does not map this level pair continuously"
        )
    for m, c in g.terms:
        if c.degree > (cap_m := p.degree_cap(m)):
            raise PreconditionViolated(
                f"check_lemma5: term at m = {m} has deg C_m = {c.degree} > Kcal |m| = "
                f"{cap_m}; g does not lie in the declared level space"
            )
    h = g
    for _ in range(j):
        h = h.base_delta()
    h = h.mul_poly(a).shift_m(l)
    table = _table(g.gens, g.lambda_base, p)
    lhs = h_norm(h, p, level=0)
    na = raw_poly_norm(a, table.powers)
    gamma, weight_pow = table.gamma, table.weight_pow
    cands = (raw_mul(raw_div(raw_mul(na, gamma(m)), gamma(tuple(map(add, m, l)))), weight_pow(m, j - p.j))
             for m, _ in g.terms)  # each >= 0
    A_tilde = max(cands, key=by_value, default=fzero)
    bound = raw_mul(A_tilde, _raw_h_norm(g, p, p.j))
    passed = lhs <= _mpf(raw_mul(bound, _SLACK))
    return Lemma5Report(lhs, _mpf(bound), _mpf(A_tilde), passed)


def majorant_bound(coeffs: dict, rho, tail_norms, gens: Generators, p: NormParams) -> mpmath.mpf:
    """Numeric majorant for a sum of terms a_{pq}(t) X^p u^q evaluated at
    ||u_i||_0 <= tail_norms[i], |X_i| summarized by the single radius rho.

    Each term contributes ||a||_R / |Gamma(<pm,r>/s)| * rho^|pm| * C^|qm| *
    prod tail_norms^qm, where C is the largest realized Gamma product ratio
    (as in check_lemma6, but at least 1) and the Gamma factor is omitted for
    pm = 0, which only enlarges the bound.  rho and the tail norms are read
    as decimal_rational reads them, so a float 0.1 is 1/10.
    """
    pms = [pm for pm, _ in coeffs if any(pm)]
    table = _table(gens, None, p)
    rho, *tails = (raw_rational(decimal_rational(v)) for v in (rho, *tail_norms))
    C = max([fone, *(table.ratio(a, b) for i, a in enumerate(pms) for b in pms[i:])], key=by_value)
    acc = fzero
    for (pm, qm), a in sorted(coeffs.items()):
        if not any(pm) and not any(qm):
            raise ValueError("majorant_bound: term with p = q = 0 is not allowed")
        term = raw_poly_norm(a, table.powers)
        if any(pm):
            term = raw_div(term, table.gamma(pm))
        for v, e in zip([rho, C, *tails], [sum(pm), sum(qm), *qm]):
            term = raw_mul(term, raw_pow(v, e))
        acc = raw_add(acc, term)
    return _mpf(acc)


# -- randomized trials of the estimates -----------------------------------------


# the draws of _random_poly and _random_mseries, as tuples for rng.choice:
# choice(range(a, b + 1)) draws what randint(a, b) draws, with less overhead
_RE, _IM, _SIXTHS = tuple(range(-4, 5)), tuple(range(-2, 3)), (6, 3, 2)
_TERMS, _ENTRIES = (1, 2, 3, 4), (0, 1, 2, 3)


def _random_poly(rng, max_deg: int) -> TPoly:
    """Coefficients a/b + (c/d) i with a in [-4, 4], c in [-2, 2] and b, d in
    [1, 3], drawn in that order; a zero leading coefficient becomes 1.  Every
    denominator divides 6, so the numerators are built over 6 (6 // b is
    drawn for b)."""
    choice = rng.choice
    re, im = [], []
    for _ in range(rng.randint(0, max_deg) + 1):
        re.append(choice(_RE) * choice(_SIXTHS))
        im.append(choice(_IM) * choice(_SIXTHS))
    if not re[-1] and not im[-1]:
        re[-1] = 6
    return TPoly.from_ints(6, re, im)


def _random_mseries(rng, gens: Generators, lambda_base: Exponent, max_deg_for=lambda m: 2) -> MSeries:
    """1 to 4 terms at multi-indices with entries in [0, 3] (a zero index
    becomes a random unit vector), each with a _random_poly coefficient;
    the indices are valid by construction, so the series is built trusted."""
    kappa, choice = gens.kappa, rng.choice
    items = {}
    for _ in range(choice(_TERMS)):
        m = tuple([choice(_ENTRIES) for _ in range(kappa)])
        if not any(m):
            one = rng.randrange(kappa)
            m = tuple(int(i == one) for i in range(kappa))
        c = _random_poly(rng, max_deg_for(m))
        items[m] = items[m] + c if m in items else c
    return MSeries._trusted_over(gens, lambda_base, _canonical_terms(items, gens, INF), INF)


_TRIALS = {"lemma6": 40, "lemma5": 25, "lemma5_rejects": 8, "majorant_monotone": 5}


def norm_trials(rng, gens: Generators, R, s, Kcal) -> dict:
    """{kind: (trials, failures)} of randomized trials of the estimates on
    data drawn from rng over gens, with weight R, order s and degree constant
    Kcal; a failure is an implementation regression.

    The kinds, in order: check_lemma6 on random pairs; check_lemma5 on a
    shift l and data that meet its preconditions; check_lemma5 on l = 0 with
    j = level + 1, which its slope gate must reject; majorant_bound rising
    with the tail norm."""
    base = gens.basis.rational(Fraction(rng.randint(0, 3)))
    kappa = gens.kappa
    fails = dict.fromkeys(_TRIALS, 0)
    p0 = NormParams(R, s, Fraction(0))
    at_level = [NormParams(R, s, Kcal, level) for level in (0, 1)]
    for _ in range(_TRIALS["lemma6"]):
        g1, g2 = _random_mseries(rng, gens, base), _random_mseries(rng, gens, base)
        fails["lemma6"] += not check_lemma6(g1, g2, p0).passed

    # l is drawn from {0,1,2}^kappa; when no such l meets the slope gate of
    # j = level + 1 (s above Re<(2,...,2),r>), the trial checks j = level
    box_re = gens.m_exponent((2,) * kappa).re_mid
    for _ in range(_TRIALS["lemma5"]):
        level = rng.randint(0, 1)
        j = level + rng.randint(0, 1)
        p = at_level[level]
        if p.slope_gate(j) > box_re:
            j = level
        while True:
            l = tuple(rng.randint(0, 2) for _ in range(kappa))
            if any(l) and gens.m_exponent(l).re_mid >= p.slope_gate(j):
                break
        a = _random_poly(rng, min(2, int(p.degree_cap(l))))
        g = _random_mseries(rng, gens, base, max_deg_for=lambda m: min(2, int(p.degree_cap(m))))
        fails["lemma5"] += not check_lemma5(a, l, j, g, p).passed

    for _ in range(_TRIALS["lemma5_rejects"]):
        level = rng.randint(0, 1)
        p = at_level[level]
        g = _random_mseries(rng, gens, base, max_deg_for=lambda m: 0)
        try:
            check_lemma5(TPoly.ONE, (0,) * kappa, level + 1, g, p)
            fails["lemma5_rejects"] += 1
        except PreconditionViolated:
            pass

    e1 = (1,) + (0,) * (kappa - 1)
    coeffs = {(e1, (0,)): TPoly.ONE, ((0,) * kappa, (1,)): TPoly.ONE, (e1, (2,)): TPoly.ONE}
    for _ in range(_TRIALS["majorant_monotone"]):
        lo = Fraction(rng.randint(1, 8), 8)
        hi = lo + Fraction(rng.randint(1, 8), 8)
        rho = Fraction(rng.randint(1, 4), 4)
        b_lo = majorant_bound(coeffs, rho, [lo], gens, p0)
        fails["majorant_monotone"] += not b_lo <= majorant_bound(coeffs, rho, [hi], gens, p0)
    return {kind: (_TRIALS[kind], n) for kind, n in fails.items()}
