"""Tail independence: no claimed term depends on unknown tail data.

Each drawn series is known below a finite cutoff.  Two exact extensions of
it add different tail terms of real part at or above the cutoff, some of
them exactly at it.  Every result an operation claims on the series must
equal the same operation on either extension, truncated at the claimed
cutoff.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dulac.exponents import ExponentBasis
from dulac.mseries import MSeries
from dulac.ode import Evaluation, ODESpec
from dulac.scalars import ExactScalar
from dulac.semigroup import validate_generators
from dulac.series import INF, DulacSeries
from dulac.tpoly import TPoly

BASES = (("1",), ("1", "1+1i"))  # Re of the coordinates (a,) or (a, b) is a or a + b

_COEFF = st.lists(st.tuples(st.integers(-2, 2), st.integers(-1, 1)), min_size=1, max_size=2)


def _poly(pairs) -> TPoly:
    return TPoly(tuple(ExactScalar(a, b) for a, b in pairs))


@st.composite
def _known_and_tails(draw, pool, re):
    """(cutoff, known, tail_a, tail_b) over a pool of exponents: the cutoff
    is the real part of one of them, so a tail term may sit exactly at it;
    the known terms lie below it and both tails at or above it."""
    cutoff = draw(st.sampled_from(sorted({re(x) for x in pool})))

    def pick(keep):
        return [(x, draw(_COEFF)) for x in pool if keep(re(x)) and draw(st.booleans())]

    below, above = (lambda v: v < cutoff), (lambda v: v >= cutoff)
    return cutoff, pick(below), pick(above), pick(above)


def _halves(lo, hi):
    return st.integers(lo, hi).map(lambda k: Fraction(k, 2))


@st.composite
def _series(draw, dim, positive=False):
    """_known_and_tails over coordinate vectors; positive keeps every real
    part at least 1/2, negative ones are drawn otherwise."""
    first = _halves(1, 6) if positive else _halves(-4, 6)
    rest = _halves(0, 2) if positive else _halves(-2, 2)
    pool = draw(st.lists(st.tuples(first, *[rest] * (dim - 1)), min_size=1, max_size=5, unique=True))
    return draw(_known_and_tails(pool, sum))


def _extensions(basis, drawn):
    """The series known below the drawn cutoff, and its two exact extensions."""
    cutoff, known, *tails = drawn

    def build(terms, c):
        return DulacSeries(basis, tuple((basis.exponent(x), _poly(p)) for x, p in terms), c)

    return build(known, cutoff), [build(known + tail, INF) for tail in tails]


def _agrees(claimed, exact) -> None:
    """claimed holds exactly the terms of exact below its cutoff."""
    assert claimed.terms == exact.truncate(claimed.cutoff).terms


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_series_claims_are_tail_free(data):
    entries = data.draw(st.sampled_from(BASES))
    basis, dim = ExponentBasis(entries), len(entries)
    f, fs = _extensions(basis, data.draw(_series(dim)))
    g, gs = _extensions(basis, data.draw(_series(dim)))
    e = basis.exponent(data.draw(st.tuples(*[_halves(-4, 4)] * dim)))
    cut = min(f.cutoff, data.draw(_halves(-6, 8)))
    for F, G in zip(fs, gs):
        _agrees(f * g, F * G)
        _agrees(f.shift(e), F.shift(e))
        _agrees(f.truncate(cut), F.truncate(cut))


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
    return entries, terms, degree, extra, draw(_series(len(entries), positive=True))


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
        _agrees(ev.value(phi.cutoff), exact.value())
        for e_j in ((1, 0), (0, 1)):
            _agrees(ev.derivative(e_j, phi.cutoff), exact.derivative(e_j))


def _generators(entries):
    basis = ExponentBasis(entries)
    coords = [[1]] if len(entries) == 1 else [[Fraction(1, 2), 0], [0, 1]]  # r = 1, or 1/2 and 1+i
    return validate_generators([basis.exponent(c) for c in coords])


@st.composite
def _mseries(draw, gens):
    pool = draw(st.lists(st.tuples(*[st.integers(0, 4)] * gens.kappa).filter(any),
                         min_size=1, max_size=5, unique=True))
    return draw(_known_and_tails(pool, lambda m: gens.m_exponent(m).re_mid))


def _mextensions(gens, drawn):
    """As _extensions, over semigroup coordinates."""
    cutoff, known, *tails = drawn
    base = gens.basis.zero()

    def build(terms, c):
        return MSeries(gens, base, tuple((m, _poly(p)) for m, p in terms), c)

    return build(known, cutoff), [build(known + tail, INF) for tail in tails]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_mseries_claims_are_tail_free(data):
    gens = _generators(data.draw(st.sampled_from(BASES)))
    g, gs = _mextensions(gens, data.draw(_mseries(gens)))
    h, hs = _mextensions(gens, data.draw(_mseries(gens)))
    l = data.draw(st.tuples(*[st.integers(0, 2)] * gens.kappa))
    for G, H in zip(gs, hs):
        _agrees(g * h, G * H)
        _agrees(g.shift_m(l), G.shift_m(l))
