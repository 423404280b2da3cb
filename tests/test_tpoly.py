"""Polynomial coefficients in t and the weighted norm."""

import copy
import pickle
import random
from fractions import Fraction
from math import gcd

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_rational, round_nearest

from dulac.errors import ExactValueRequired
from dulac.exponents import ExponentBasis
from dulac.gevrey import GevreyReport, RhoRow, classify
from dulac.mseries import MSeries
from dulac.norms import Lemma5Report, Lemma6Report, NormParams, check_lemma5, check_lemma6
from dulac.numeric import ConditionReport, _sqrt_rational, check_conditions, poly_norm, raw_rational
from dulac.scalars import ExactScalar
from dulac.semigroup import validate_generators
from dulac.series import INF, DulacSeries
from dulac.solver import LinearData, ReducedEquation, SolutionState, extend, reduce_equation
from dulac.tpoly import TPoly, _normal
from .util import (
    abs_oracle,
    basis_one,
    euler_ode,
    poly_deriv_oracle,
    poly_linear_oracle,
    poly_norm_oracle,
    poly_scale_oracle,
    poly_serialize_oracle,
    poly_shift_apply_oracle,
    poly_taylor_oracle,
    poly_value_oracle,
    random_poly,
    random_scalar,
    read_oracle,
    schoolbook_product,
    sqrt_rational_oracle,
)


def test_construction_strips_trailing_zeros():
    p = TPoly((ExactScalar.of(1), ExactScalar.of(0), ExactScalar.of(0)))
    assert p.degree == 0
    assert p == TPoly.of(1)
    assert TPoly(()).degree == float("-inf")
    assert TPoly.ZERO.is_zero()


def test_indexing_and_degree():
    p = TPoly.parse(["1/1", "0/1", "2/1"])  # 1 + 2t^2
    assert p.degree == 2
    assert p[0] == ExactScalar.of(1)
    assert p[1].is_zero()
    assert p[5].is_zero()  # out of range reads as zero


def test_ring_ops_against_manual_convolution():
    rng = random.Random(3)
    for _ in range(200):
        p, q = random_poly(rng), random_poly(rng)
        prod = p * q
        for k in range(max(0, int(p.degree) + int(q.degree)) + 1 if not (p.is_zero() or q.is_zero()) else 1):
            want = ExactScalar.of(0)
            for i in range(k + 1):
                want = want + p[i] * q[k - i]
            assert prod[k] == want
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) * p == p * p + q * p


# zero parts are drawn often, so zero inner coefficients and real or purely
# imaginary coefficients inside a complex factor occur
_PARTS = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-50, max_value=50, max_denominator=40),
)


@st.composite
def _tpolys(draw):
    kind = draw(st.sampled_from(("real", "imaginary", "complex")))
    coeffs = []
    for _ in range(draw(st.integers(1, 7))):
        re = Fraction(0) if kind == "imaginary" else draw(_PARTS)
        im = Fraction(0) if kind == "real" else draw(_PARTS)
        coeffs.append(ExactScalar(re, im))
    return TPoly(tuple(coeffs))


@st.composite
def _scalars(draw):
    """A complex, real or purely imaginary ExactScalar."""
    kind = draw(st.sampled_from(("real", "imaginary", "complex")))
    re = Fraction(0) if kind == "imaginary" else draw(_PARTS)
    im = Fraction(0) if kind == "real" else draw(_PARTS)
    return ExactScalar(re, im)


# every multiplier TPoly accepts: ExactScalar, int and Fraction
_MULTIPLIERS = st.one_of(_scalars(), st.integers(-30, 30), _PARTS)


def assert_canonical(p: TPoly):
    """The content-free form: positive denominator, content 1, no trailing
    zero coefficient, im None exactly when every imaginary part is zero."""
    assert isinstance(p.den, int) and p.den > 0
    assert isinstance(p.re, tuple) and all(isinstance(x, int) for x in p.re)
    if p.is_zero():
        assert (p.den, p.re, p.im) == (1, (), None)
        return
    assert p.im is None or (isinstance(p.im, tuple) and len(p.im) == len(p.re))
    im = p.im or (0,) * len(p.re)
    assert gcd(p.den, *p.re, *im) == 1
    assert p.re[-1] or im[-1]
    assert (p.im is None) == all(c.im == 0 for c in p.coeffs)
    assert p.coeffs == tuple(
        ExactScalar(Fraction(x, p.den), Fraction(y, p.den)) for x, y in zip(p.re, im)
    )


def assert_same(got: TPoly, want: TPoly):
    assert_canonical(got)
    assert got == want
    assert hash(got) == hash(want)
    assert got.serialize() == want.serialize()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_tpolys(), _tpolys())
def test_product_matches_schoolbook_oracle(p, q):
    assert_same(p * q, schoolbook_product(p, q))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_tpolys(), _tpolys())
def test_sum_difference_negation_match_oracle(p, q):
    assert_same(p + q, poly_linear_oracle(p, q, 1))
    assert_same(p - q, poly_linear_oracle(p, q, -1))
    assert_same(-p, poly_scale_oracle(p, -1))
    assert_same(p - p, TPoly.ZERO)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_tpolys(), _MULTIPLIERS)
def test_scalar_product_matches_oracle(p, k):
    want = poly_scale_oracle(p, k)
    assert_same(p * k, want)
    assert_same(k * p, want)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_tpolys(), _scalars())
def test_deriv_and_shift_apply_match_oracle(p, lam):
    assert_same(p.deriv(), poly_deriv_oracle(p))
    assert_same(p.shift_apply(lam), poly_shift_apply_oracle(p, lam))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_tpolys(), _scalars())
def test_value_and_taylor_match_oracle(p, z):
    assert p(z) == poly_value_oracle(p, z)
    assert p.taylor_at(z) == poly_taylor_oracle(p, z)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_tpolys(), _scalars())
@example(TPoly.ZERO, ExactScalar(Fraction(2, 3), Fraction(-1, 5)))
@example(TPoly.ZERO, ExactScalar.of(0))
def test_value_is_the_first_taylor_entry(p, z):
    # p(z) runs one Horner pass, taylor_at all of them
    assert p(z) == p.taylor_at(z)[0]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_tpolys(), _scalars(), st.integers(1, 8))
def test_taylor_shift_stops_after_count_entries(p, z, count):
    # solve_shifted reads only the first deg b + 1 Taylor entries of L, so
    # the Horner passes stop there; those entries are the full expansion's
    D, m_re, m_im = p._taylor_numerators(z, count)
    full_D, full_re, full_im = p._taylor_numerators(z, max(len(p.re), 1))
    k = min(count, len(full_re))
    assert (D, m_re) == (full_D, full_re[:k])
    assert (m_im or [0] * k) == (full_im or [0] * len(full_re))[:k]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_tpolys(), _tpolys())
def test_canonical_form_is_unique(p, q):
    assert_canonical(p)
    # equal values reached by different routes are equal objects
    assert_same((p + q) - q, p)
    assert_same(TPoly(p.coeffs), p)
    assert_same(TPoly(p.coeffs + (ExactScalar.of(0),)), p)
    assert_same(TPoly.parse(p.serialize()), p)
    im = None if p.im is None else [3 * y for y in p.im]
    assert_same(_normal(3 * p.den, [3 * x for x in p.re], im), p)
    assert_same(TPoly.from_ints(3 * p.den, [3 * x for x in p.re], im), p)
    assert_same(_normal(-3 * p.den, [-3 * x for x in p.re], im and [-y for y in im]), p)


@st.composite
def _constant_fields(draw):
    """(den, x, y) for the constant (x + y i) / den: den of either sign,
    and x or y or both zero often."""
    den = draw(st.integers(-40, 40).filter(bool))
    kind = draw(st.sampled_from(("real", "imaginary", "complex", "zero")))
    x = 0 if kind in ("imaginary", "zero") else draw(st.integers(-60, 60))
    y = 0 if kind in ("real", "zero") else draw(st.integers(-60, 60))
    return den, x, y


def _constant(c: ExactScalar) -> TPoly:
    """The oracle constant, built from its ExactScalar by the public
    constructor."""
    return TPoly((c,))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_constant_fields(), _constant_fields(), _MULTIPLIERS, _scalars(), _tpolys())
# a zero constant over a negative denominator, and L(lam) = 0 for L = t - 1
@example((-4, 0, 0), (-6, 3, -9), 0, ExactScalar.of(1), TPoly.of(-1, 1))
def test_constant_arithmetic_matches_scalar_oracle(f, g, k, lam, L):
    # constants take the one-coefficient paths of _normal, *, + and -; each
    # result is the content-free TPoly of the ExactScalar result
    for den, x, y in (f, g):
        c = ExactScalar(Fraction(x, den), Fraction(y, den))
        assert_same(_normal(den, [x], [y]), _constant(c))
        assert_same(_normal(den, [x], None), _constant(ExactScalar(c.re, Fraction(0))))
    p, q = (TPoly.from_ints(den, [x], [y]) for den, x, y in (f, g))
    a, b = p[0], q[0]
    assert_same(p * q, _constant(a * b))
    assert_same(p + q, _constant(a + b))
    assert_same(p - q, _constant(a - b))
    assert_same(p - p, TPoly.ZERO)
    assert_same(p + -p, TPoly.ZERO)
    assert_same(p * k, _constant(a * (k if isinstance(k, ExactScalar) else ExactScalar.of(k))))
    assert_same(p.shift_apply(lam), _constant(lam * a))
    # solve_shifted with a constant right-hand side: v = b / L(lam)
    for op in (L, q):
        value = poly_value_oracle(op, lam)
        if value.is_zero():
            with pytest.raises(ZeroDivisionError):
                op.solve_shifted(lam, p)
        else:
            assert_same(op.solve_shifted(lam, p), _constant(a / value))


_EXPONENT_COORDS = st.one_of(st.integers(-9, 9), st.fractions(min_value=-20, max_value=20, max_denominator=12))


def _each_kernel(p: TPoly, L: TPoly, b: TPoly, lam) -> tuple:
    """p.shift_apply(lam), L.solve_shifted(lam, b) (ZeroDivisionError where
    L(lam) = 0) and p(lam)."""
    try:
        solved = L.solve_shifted(lam, b)
    except ZeroDivisionError:
        solved = ZeroDivisionError
    return p.shift_apply(lam), solved, p(lam)


@pytest.mark.parametrize("entries", [["1"], ["1", "1+1i"], ["1", "1/3+1/2i"], ["-1/2", "2+3/4i"]])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_kernels_take_an_exponent_as_its_value(entries, data):
    # an exponent's parts are its value as one int triple in lowest terms,
    # and each kernel fed the exponent itself gives what it gives fed value()
    basis = ExponentBasis(entries)
    e = basis.exponent(data.draw(st.lists(_EXPONENT_COORDS, min_size=basis.dim, max_size=basis.dim)))
    d, a, b = e.parts
    re = sum((c * x.re for c, x in zip(e.coords, basis.entries)), Fraction(0))
    im = sum((c * x.im for c, x in zip(e.coords, basis.entries)), Fraction(0))
    assert d > 0 and gcd(d, a, b) == 1
    assert (Fraction(a, d), Fraction(b, d)) == (e.re_mid, e.im_mid) == (re, im)
    assert e.exact_parts() == e.parts
    p, L, rhs = data.draw(_tpolys()), data.draw(_tpolys()), data.draw(_tpolys())
    # half the time L vanishes at e: the resonant case raises on both sides
    if data.draw(st.booleans()):
        L = L * TPoly((-e.value(), ExactScalar.of(1)))
    assert _each_kernel(p, L, rhs, e) == _each_kernel(p, L, rhs, e.value())


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(_EXPONENT_COORDS, min_size=2, max_size=2), _tpolys(), _tpolys())
def test_kernels_refuse_an_approximate_exponent_as_value_does(coords, p, L):
    e = ExponentBasis(["1", "1.41421356237"]).exponent(coords)
    if not e.nums[1]:
        # no weight on the decimal entry: the value is exact
        assert _each_kernel(p, L, p, e) == _each_kernel(p, L, p, e.value())
        return
    with pytest.raises(ExactValueRequired) as want:
        e.value()
    for kernel in (lambda: p.shift_apply(e), lambda: L.solve_shifted(e, p), lambda: p(e)):
        with pytest.raises(ExactValueRequired) as got:
            kernel()
        assert str(got.value) == str(want.value)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_tpolys(), st.fractions(min_value=Fraction(11, 10), max_value=20, max_denominator=12))
def test_norm_equals_abs_oracle_sum_exactly(p, R):
    # the same coefficients with numerators and denominator past 300 bits
    wide = TPoly.from_ints(
        p.den * 3**200, [x << 310 for x in p.re], p.im and [y << 310 for y in p.im]
    )
    if not p.is_zero():
        assert wide.den.bit_length() > 300 and max(map(abs, wide.re + (wide.im or ()))) >> 300
    for poly, weight in ((p, R), (p, float(R)), (wide, R)):
        got, want = poly_norm(poly, weight), poly_norm_oracle(poly, weight)
        assert got == want
        assert got.man_exp == want.man_exp  # same mantissa and exponent, bit for bit


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_tpolys())
def test_serialize_matches_scalar_oracle(p):
    # the same values over a 300-bit denominator, and with big numerators
    wide = TPoly.from_ints(p.den * 3**200, [x * 3**200 for x in p.re], p.im and [y * 3**200 for y in p.im])
    big = TPoly.from_ints(p.den, [x << 310 for x in p.re], p.im and [y << 310 for y in p.im])
    for q in (p, -p, wide, big, big * ExactScalar.of(0, 1)):
        assert q.serialize() == poly_serialize_oracle(q)
    assert wide.serialize() == p.serialize()


def test_serialize_edge_cases():
    for literals, want in [
        ([], []),
        (["0/1", "-3/6", "0/5+2/4i"], ["0/1", "-1/2", "0/1+1/2i"]),
        (["-7/3-5/9i", "1/1-1/1i"], ["-7/3-5/9i", "1/1-1/1i"]),
    ]:
        p = TPoly.parse(literals)
        assert p.serialize() == poly_serialize_oracle(p) == want


def test_arithmetic_builds_no_scalar(monkeypatch):
    """Sums, products, deriv, shift_apply and serialize run on ints: no
    ExactScalar is built until a coefficient is read."""
    rng = random.Random(11)
    polys = [random_poly(rng, 5) for _ in range(12)]
    polys = [-(-p) for p in polys]  # equal polynomials without cached coefficients
    lam = ExactScalar(Fraction(3, 4), Fraction(-2, 5))
    real = ExactScalar.of(Fraction(5, 6))
    built = []
    init = ExactScalar.__init__

    def counting_init(self, re, im):
        built.append(self)
        init(self, re, im)

    monkeypatch.setattr(ExactScalar, "__init__", counting_init)
    for p, q in zip(polys, polys[1:]):
        r = p * q + p - q
        r = -(r * lam) + r * real + r * 3 + r * Fraction(2, 7)
        r.deriv().shift_apply(lam).shift_apply(real).degree
        r.serialize()
        assert r == r and hash(r) == hash(r) and r.is_zero() in (True, False)
    assert built == []
    assert polys[0].coeffs
    assert built


def _value_objects() -> list:
    """(value, declared fields) for TPoly and every other immutable value
    class of the library; the fields are None where the repr is custom."""
    basis = basis_one()
    state = extend(euler_ode(), DulacSeries.zero(basis), 6)
    report = classify(state, 1, 2)
    gens = validate_generators([basis.rational(1)])
    p = NormParams(2, 1, 1)
    g = MSeries(gens, basis.zero(), (((1,), TPoly.T),), INF)
    approx = ExponentBasis(["1", "1+1i", "1.41421356237"])
    return [
        (TPoly.of("1/2", "3/4+1/3i"), None),
        (ExactScalar(Fraction(1, 2), Fraction(-3)), None),
        (approx, None),
        (approx.exponent([Fraction(1, 2), 0, 3]), None),
        (ExponentBasis(["1", "1+1i"]).exponent([Fraction(1, 2), 3]), None),  # parts and key set
        (approx.entries[2], ("literal", "re", "im", "re_floor", "im_floor")),
        (state.solution, ("basis", "terms", "cutoff")),
        (state.F, ("n", "terms", "declared_degree")),
        (gens, ("basis", "r")),
        (p, ("R", "s", "Kcal", "j")),
        (g, ("gens", "lambda_base", "terms", "cutoff")),
        (state, SolutionState._fields),
        (state.lin, LinearData._fields),
        (report, GevreyReport._fields),
        (report.rows[0], RhoRow._fields),
        (check_conditions(state.lin, [e for e, _ in state.solution.terms], s=1), ConditionReport._fields),
        (reduce_equation(euler_ode(), state.solution, 1, s=1), ReducedEquation._fields),
        (check_lemma6(g, g, p), Lemma6Report._fields),
        (check_lemma5(TPoly.ONE, (1,), 0, g, p), Lemma5Report._fields),
    ]


def test_immutable_and_picklable():
    """No field can be set or deleted and no attribute added; the repr of a
    record lists its fields by name and its hash is that of the field tuple;
    a pickled or deep-copied value equals the original, with an equal hash
    and repr."""
    for value, fields in _value_objects():
        assert not hasattr(value, "__dict__")
        for name in (*type(value).__slots__, *(fields or ()), "no_such_field"):
            with pytest.raises(AttributeError):
                setattr(value, name, 0)
            with pytest.raises(AttributeError):
                delattr(value, name)
        if fields is not None:
            listed = ", ".join(f"{name}={getattr(value, name)!r}" for name in fields)
            assert repr(value) == f"{type(value).__name__}({listed})"
            assert hash(value) == hash(tuple(getattr(value, name) for name in fields))
        for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert type(copied) is type(value)
            assert copied == value and hash(copied) == hash(value) and repr(copied) == repr(value)


def test_deriv_and_shift_apply():
    t = TPoly.T
    p = t * t  # t^2
    assert p.deriv() == TPoly.parse(["0/1", "2/1"])
    lam = ExactScalar.of(2)
    # (lam + d/dt) t^2 = 2 t^2 + 2 t
    assert p.shift_apply(lam) == TPoly.parse(["0/1", "2/1", "2/1"])
    assert TPoly.ONE.shift_apply(lam) == TPoly.of(2)


def test_call_and_taylor():
    # p = (t+1)^3 expanded
    p = TPoly.parse(["1/1", "3/1", "3/1", "1/1"])
    z = ExactScalar.of(-1)
    assert p(z).is_zero()
    assert p.taylor_at(z) == [ExactScalar.of(0), ExactScalar.of(0), ExactScalar.of(0), ExactScalar.of(1)]
    assert p(ExactScalar.of(1)) == ExactScalar.of(8)


def test_serialize_roundtrip():
    rng = random.Random(5)
    for _ in range(100):
        p = random_poly(rng)
        assert TPoly.parse(p.serialize()) == p


def test_norm_reads_float_R_at_its_repr():
    p = TPoly.parse(["1/3", "2/7+1/5i", "-5/4"])
    binary = Fraction(2.1)  # equal to the float 2.1, unlike its repr 21/10
    assert poly_norm(p, binary) == poly_norm_oracle(p, binary)
    assert poly_norm(p, 2.1) == poly_norm_oracle(p, Fraction(21, 10)) != poly_norm(p, binary)


def test_norm_examples():
    assert poly_norm(TPoly.T, 2) == 2
    assert poly_norm(TPoly.of(ExactScalar(Fraction(3), Fraction(4))), 5) == 5
    assert poly_norm(TPoly.parse(["1/1", "1/1"]), 2) == 3
    assert poly_norm(TPoly.ZERO, 2) == 0


def test_norm_validates_R():
    with pytest.raises(ValueError):
        poly_norm(TPoly.ONE, 1)
    with pytest.raises(ValueError):
        poly_norm(TPoly.ONE, Fraction(1, 2))


def test_norm_submultiplicative_and_monotone():
    rng = random.Random(9)
    with mpmath.workprec(128):
        slack = 1 + mpmath.mpf("1e-30")
        for _ in range(100):
            p, q = random_poly(rng), random_poly(rng)
            R = Fraction(rng.randint(5, 20), rng.randint(1, 4))
            if R <= 1:
                R += 1
            assert poly_norm(p * q, R) <= poly_norm(p, R) * poly_norm(q, R) * slack
            assert poly_norm(p, R) <= poly_norm(p, R + 1) * slack


def _ints_of_bits(bits):
    return st.integers(1 << (bits - 1), (1 << bits) - 1)


_WIDE = st.integers(1, 3000).flatmap(_ints_of_bits)
_MANTISSAS = st.integers(1 << 127, (1 << 129) - 1)  # 128 or 129 bits
_ROOT_PAIRS = st.one_of(
    st.tuples(_WIDE, _WIDE),
    # perfect squares: an exact root
    st.tuples(_WIDE, _WIDE).map(lambda nd: (nd[0] * nd[0], nd[1] * nd[1])),
    # powers of two and their neighbours
    st.tuples(st.integers(0, 2000), st.integers(-1, 1), st.integers(0, 2000), st.integers(-1, 1)).map(
        lambda t: ((1 << t[0]) + t[1], max((1 << t[2]) + t[3], 1))),
    # a quotient m 2^e with m of 128 bits (exact) or 129 (truncated)
    st.tuples(_MANTISSAS, _WIDE, st.integers(-300, 300)).map(
        lambda t: (t[0] * t[1] << max(t[2], 0), t[1] << max(-t[2], 0))),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_ROOT_PAIRS)
@example((0, 1))
@example((0, 7))
@example((1, 1))
@example((2, 1))
@example((1, 2))
@example(((1 << 128) - 1, 1))
@example((1 << 128, 3))
def test_root_kernel_rounds_as_mpmath(pair):
    # the int kernel under poly_norm and the norm weights: bit for bit mpf_sqrt of
    # from_rational, both roundings included
    num, den = pair
    assert _sqrt_rational(num, den) == sqrt_rational_oracle(num, den)


def test_raw_rational_reads_as_mpmathify_not_to_nearest():
    # every int or Fraction enters the float layer through raw_rational:
    # rounded down to 128 bits, as mpmathify rounds a Fraction inside
    # workprec(128); rounding to nearest would change about half the reads
    rng = random.Random(29)
    xs = [0, 1, -1, (1 << 128) - 1, -(1 << 127) - 1, Fraction(1, 3), Fraction(-2, 3), Fraction((1 << 200) + 1)]
    for _ in range(1000):
        sign = rng.choice((1, -1))
        xs.append(sign * rng.getrandbits(rng.randint(1, 128)))  # an int, exact at 128 bits
        xs.append(Fraction(sign * rng.getrandbits(rng.randint(1, 400))))  # integral, past 2^128 too
        xs.append(Fraction(sign * rng.getrandbits(rng.randint(1, 400)), rng.getrandbits(rng.randint(1, 300)) or 1))
    nearest_differs = 0
    for x in xs:
        got = raw_rational(x)
        assert got == read_oracle(x)._mpf_
        nearest_differs += got != from_rational(x.numerator, x.denominator, 128, round_nearest)
    assert nearest_differs > len(xs) // 5


def test_poly_norm_of_a_constant_rounds_as_abs_oracle():
    rng = random.Random(11)
    for _ in range(200):
        c = random_scalar(rng)
        assert poly_norm(TPoly.of(c), 3)._mpf_ == abs_oracle(c)._mpf_
