"""Tail independence: no claimed term depends on unknown tail data.

Each drawn series is known below a finite cutoff.  Two exact extensions of
it add different tail terms of real part at or above the cutoff, some of
them exactly at it.  Every result an operation claims on the series must
equal the same operation on either extension, truncated at the claimed
cutoff.  Over an approximate basis, real parts are enclosures: a known term
lies certainly below the cutoff and a tail term certainly at or above it,
and an operation or truncation that cannot be decided
(UndecidableComparison) claims nothing, so it passes.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dulac.errors import ExactValueRequired, UndecidableComparison
from dulac.exponents import ExponentBasis
from dulac.mseries import MSeries, iota, iota_inv
from dulac.ode import Evaluation, ODESpec
from dulac.scalars import ExactScalar
from dulac.semigroup import validate_generators
from dulac.series import INF, DulacSeries
from dulac.solver import extend
from dulac.tpoly import TPoly

BASES = (("1",), ("1", "1+1i"))  # Re of the coordinates (a,) or (a, b) is a or a + b
APPROXIMATE = ("1", "1.41421356237")  # Re of (a, b) is a + b sqrt(2), enclosed to +- b 5e-12

_COEFF = st.lists(st.tuples(st.integers(-2, 2), st.integers(-1, 1)), min_size=1, max_size=2)


def _poly(pairs) -> TPoly:
    return TPoly(tuple(ExactScalar(a, b) for a, b in pairs))


def _bounds(e) -> tuple:
    """The certified lower and upper ends of Re e; equal over an exact basis."""
    return e.re_low, 2 * e.re_mid - e.re_low


@st.composite
def _known_and_tails(draw, pool, bounds):
    """(cutoff, known, tail_a, tail_b) over a pool of exponents, with
    bounds(x) the ends of Re x: the cutoff is the lower end of one of them,
    so a tail term may sit exactly at it; the known terms lie below it and
    both tails at or above it.  A term whose enclosure holds the cutoff is
    neither."""
    cutoff = draw(st.sampled_from(sorted({bounds(x)[0] for x in pool})))

    def pick(keep):
        return [(x, draw(_COEFF)) for x in pool if keep(*bounds(x)) and draw(st.booleans())]

    below, above = (lambda lo, hi: hi < cutoff), (lambda lo, hi: lo >= cutoff)
    return cutoff, pick(below), pick(above), pick(above)


def _halves(lo, hi):
    return st.integers(lo, hi).map(lambda k: Fraction(k, 2))


@st.composite
def _series(draw, basis, positive=False):
    """_known_and_tails over coordinate vectors; positive keeps every real
    part at least 1/2, negative ones are drawn otherwise."""
    first = _halves(1, 6) if positive else _halves(-4, 6)
    rest = _halves(0, 2) if positive else _halves(-2, 2)
    pool = draw(st.lists(st.tuples(first, *[rest] * (basis.dim - 1)), min_size=1, max_size=5, unique=True))
    return draw(_known_and_tails(pool, lambda x: _bounds(basis.exponent(x))))


def _extensions(basis, drawn):
    """The series known below the drawn cutoff, and its two exact extensions."""
    cutoff, known, *tails = drawn

    def build(terms, c):
        return DulacSeries(basis, tuple((basis.exponent(x), _poly(p)) for x, p in terms), c)

    return build(known, cutoff), [build(known + tail, INF) for tail in tails]


def _agrees(claimed, exact) -> None:
    """claimed holds exactly the terms of exact below its cutoff."""
    assert claimed.terms == exact.truncate(claimed.cutoff).terms


def _agrees_or_undecidable(op, f, exacts, basis) -> None:
    """_agrees(op(f), op(F)) for each exact extension F.  Over an approximate
    basis an UndecidableComparison, from the operation or the truncation,
    passes, and so does the ExactValueRequired of an operation that needs
    an exponent's exact value (delta, over a term on the approximate
    entry): neither claims a term."""
    for F in exacts:
        try:
            _agrees(op(f), op(F))
        except (UndecidableComparison, ExactValueRequired):
            if basis.exact:
                raise


def _series_claims(data, basis) -> None:
    f, fs = _extensions(basis, data.draw(_series(basis)))
    g, gs = _extensions(basis, data.draw(_series(basis)))
    e = basis.exponent(data.draw(st.tuples(*[_halves(-4, 4)] * basis.dim)))
    cut = min(f.cutoff, data.draw(_halves(-6, 8)))
    pairs = list(zip(fs, gs))
    for op in (lambda fg: fg[0] * fg[1], lambda fg: fg[0] + fg[1]):
        _agrees_or_undecidable(op, (f, g), pairs, basis)
    for op in (lambda h: h.shift(e), lambda h: h.truncate(cut), lambda h: h.delta()):
        _agrees_or_undecidable(op, f, fs, basis)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_series_claims_are_tail_free(data):
    _series_claims(data, ExponentBasis(data.draw(st.sampled_from(BASES))))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_series_claims_are_tail_free_over_an_approximate_basis(data):
    _series_claims(data, ExponentBasis(APPROXIMATE))


_Q = ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


@st.composite
def _evaluation_cases(draw):
    """(entries, monomials of F, declared degree, monomials above it, phi):
    F has n = 1; the monomials above the declared degree extend F, and none
    are drawn when no degree is declared."""
    entries = draw(st.sampled_from(BASES))
    coeff = st.sampled_from([-2, -1, 1, 2, 3])
    shapes = draw(st.lists(st.sampled_from([(p, q) for p in range(2) for q in ((0, 0),) + _Q if p or any(q)]),
                           min_size=1, max_size=3, unique=True))
    terms = [(draw(coeff), p, q) for p, q in shapes]
    top = max(p + sum(q) for _, p, q in terms)
    degree = draw(st.sampled_from([None, top, top + 1]))
    extra = []
    if degree is not None:
        above = [(p, (a, k - a)) for p in range(3) for k in range(4) for a in range(k + 1) if p + k > degree]
        extra = [(draw(coeff), p, q) for p, q in draw(st.lists(st.sampled_from(above), min_size=1,
                                                                max_size=2, unique=True))]
    return entries, terms, degree, extra, draw(_series(ExponentBasis(entries), positive=True))


def _ode(terms, degree) -> ODESpec:
    return ODESpec(1, tuple((ExactScalar.of(c), p, q) for c, p, q in terms), degree)


# F = x known to degree 1 at phi = O(x^(1/4)): the omitted y0^2 gives
# x^(1/2) on the extension x^(1/4), so x cannot be claimed below 2
_DECLARED_DEGREE_PROBE = (("1",), [(1, 1, (0, 0))], 1, [(1, 0, (2, 0))],
                          (Fraction(1, 4), [], [((Fraction(1, 4),), [(1, 0)])], [((Fraction(1, 4),), [(1, 0)])]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=_evaluation_cases())
@example(case=_DECLARED_DEGREE_PROBE)
def test_evaluation_claims_are_tail_free(case):
    entries, terms, degree, extra, drawn = case
    basis = ExponentBasis(entries)
    phi, phis = _extensions(basis, drawn)
    ev = Evaluation(_ode(terms, degree), phi)
    full = _ode(terms + extra, None)
    for Phi in phis:
        exact = Evaluation(full, Phi)
        value = exact.value()
        _agrees(ev.value(), value)
        for e_j in ((1, 0), (0, 1)):
            _agrees(ev.derivative(e_j), exact.derivative(e_j))
        # the head below a bound, or None when no term is claimed below it
        for bound in (INF, Fraction(3, 2), phi.cutoff, phi.cutoff + 1):
            claimed = ev.value(bound)
            _agrees(claimed, value)
            assert ev.leading(bound) == value.truncate(claimed.cutoff).leading()


def _resonant(a: int) -> ODESpec:
    """F = delta y - a y - x for an int a >= 2: its solutions are
    x / (1 - a) + C x^a, with C free at the resonance a."""
    return ODESpec(1, ((ExactScalar.of(1), 0, (0, 1)), (ExactScalar.of(-a), 0, (1, 0)),
                       (ExactScalar.of(-1), 1, (0, 0))))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(a=st.integers(2, 3), cutoff=_halves(1, 8), target=_halves(1, 12),
       cs=st.tuples(st.integers(-3, 7), st.integers(-3, 7)))
# -x + O(x^(3/2)) for F = delta y - 2 y - x: -x + x^2 and -x + 7 x^2 both
# extend it, so no x^2 term may be claimed below 2
@example(a=2, cutoff=Fraction(3, 2), target=Fraction(5), cs=(1, 7))
def test_extend_claims_are_tail_free(a, cutoff, target, cs):
    # the prefix is a solution known below a finite cutoff; below a, C is
    # not known, and both C of cs give an exact solution extending it
    basis = ExponentBasis(["1"])
    F = _resonant(a)

    def solution(c):
        return DulacSeries(basis, ((basis.rational(1), TPoly.of(Fraction(1, 1 - a))),
                                   (basis.rational(a), TPoly.of(c))), INF)

    prefix = solution(cs[0]).truncate(cutoff)
    state = extend(F, prefix, target)
    for c in cs if cutoff <= a else cs[:1]:
        exact = solution(c)
        assert Evaluation(F, exact).value().is_zero()
        _agrees(state.solution, exact)


def _generators(entries):
    basis = ExponentBasis(entries)
    coords = [[1]] if len(entries) == 1 else [[Fraction(1, 2), 0], [0, 1]]  # r = 1, or 1/2 and 1+i
    return validate_generators([basis.exponent(c) for c in coords])


@st.composite
def _mseries(draw, gens):
    pool = draw(st.lists(st.tuples(*[st.integers(0, 4)] * gens.kappa).filter(any),
                         min_size=1, max_size=5, unique=True))
    return draw(_known_and_tails(pool, lambda m: _bounds(gens.m_exponent(m))))


def _mextensions(drawn, build):
    """As _extensions, over semigroup coordinates: build(terms, cutoff)
    makes a series of the drawn (m, coefficient) terms."""
    cutoff, known, *tails = drawn
    return build(known, cutoff), [build(known + tail, INF) for tail in tails]


def _mseries_claims(data, gens) -> None:
    # the base exponent lies on the entry 1, so base_delta is exact over the
    # approximate basis too wherever the terms are
    basis = gens.basis
    base = basis.rational(data.draw(_halves(-4, 4)))

    def mseries(terms, cutoff):
        return MSeries(gens, base, tuple((m, _poly(p)) for m, p in terms), cutoff)

    def series(terms, cutoff):
        # the same terms in the exponent picture, C_m x^<m,r>
        return DulacSeries(basis, tuple((gens.m_exponent(m), _poly(p)) for m, p in terms), cutoff)

    drawn = data.draw(_mseries(gens))
    g, gs = _mextensions(drawn, mseries)
    h, hs = _mextensions(data.draw(_mseries(gens)), mseries)
    l = data.draw(st.tuples(*[st.integers(0, 2)] * gens.kappa))
    a = _poly(data.draw(_COEFF))
    cut = min(g.cutoff, data.draw(_halves(0, 16)))
    _agrees_or_undecidable(lambda gh: gh[0] * gh[1], (g, h), list(zip(gs, hs)), basis)
    for op in (lambda x: x.shift_m(l), lambda x: x.mul_poly(a), lambda x: x.truncate(cut),
               MSeries.hat_delta, MSeries.base_delta, iota_inv):
        _agrees_or_undecidable(op, g, gs, basis)
    f, fs = _mextensions(drawn, series)
    _agrees_or_undecidable(lambda x: iota(x, gens, base), f, fs, basis)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_mseries_claims_are_tail_free(data):
    _mseries_claims(data, _generators(data.draw(st.sampled_from(BASES))))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_mseries_claims_are_tail_free_over_an_approximate_basis(data):
    _mseries_claims(data, _generators(APPROXIMATE))
