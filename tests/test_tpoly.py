"""Polynomial coefficients in t and the weighted norm."""

import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dulac.scalars import ExactScalar
from dulac.tpoly import TPoly, poly_norm
from .util import random_poly, schoolbook_product


def test_construction_strips_trailing_zeros():
    p = TPoly((ExactScalar.of(1), ExactScalar.of(0), ExactScalar.of(0)))
    assert p.degree == 0
    assert p == TPoly.const(1)
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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_tpolys(), _tpolys())
def test_product_matches_schoolbook_oracle(p, q):
    prod = p * q
    want = schoolbook_product(p, q)
    assert prod == want
    assert prod.serialize() == want.serialize()


def test_deriv_and_shift_apply():
    t = TPoly.T
    p = t * t  # t^2
    assert p.deriv() == TPoly.parse(["0/1", "2/1"])
    lam = ExactScalar.of(2)
    # (lam + d/dt) t^2 = 2 t^2 + 2 t
    assert p.shift_apply(lam) == TPoly.parse(["0/1", "2/1", "2/1"])
    assert TPoly.ONE.shift_apply(lam) == TPoly.const(2)


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


def test_norm_examples():
    assert poly_norm(TPoly.T, 2) == 2
    assert poly_norm(TPoly.const(ExactScalar(Fraction(3), Fraction(4))), 5) == 5
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
