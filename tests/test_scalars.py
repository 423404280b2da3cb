"""Exact complex rational arithmetic."""

import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dulac.scalars import I, ONE, ZERO, ExactScalar, decimal_rational, parse_rational, to_double


def test_parse_forms():
    assert ExactScalar.parse("3/2") == ExactScalar(Fraction(3, 2), Fraction(0))
    assert ExactScalar.parse("-2") == ExactScalar.of(-2)
    assert ExactScalar.parse("-1/2+3/4i") == ExactScalar(Fraction(-1, 2), Fraction(3, 4))
    assert ExactScalar.parse("1/1-1/1i") == ExactScalar(Fraction(1), Fraction(-1))
    assert ExactScalar.parse("5/3i") == ExactScalar(Fraction(0), Fraction(5, 3))
    # the string parts of of() and the constructor read a literal as parse does
    for text in ("-2", "+6/4", "3/4"):
        assert ExactScalar.of(text) == ExactScalar(text, "0") == ExactScalar.parse(text)
        assert ExactScalar.of(0, text) == ExactScalar(0, text) == ExactScalar.parse(text) * I


@pytest.mark.parametrize("bad", ["1.5", "2+3j", "1/0", "", "i", "1 + 2i"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        ExactScalar.parse(bad)


@pytest.mark.parametrize("bad", [" 3 ", "3 ", "\t3", "3\n", " 1/2+1/3i"])
def test_parse_rejects_whitespace(bad):
    # no surrounding whitespace either: the literal is read as given
    with pytest.raises(ValueError, match="malformed scalar literal"):
        ExactScalar.parse(bad)


@pytest.mark.parametrize("bad", [" 3 ", "1.5", "1e2", "1_0", "3\n", "1/2/3", "", "+", 3, None])
def test_parse_rational_reads_only_a_and_a_over_b(bad):
    with pytest.raises(ValueError, match="malformed rational literal"):
        parse_rational(bad)


def test_parse_rational_forms():
    assert parse_rational("-3") == -3
    assert parse_rational("+6/4") == Fraction(3, 2)
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational("1/0")


_STRING_READERS = (ExactScalar.of, lambda x: ExactScalar.of(0, x), lambda x: ExactScalar(x, 0))


def test_zero_denominator_string_is_malformed():
    # every reader of a scalar string raises as ExactScalar.parse does
    for build in _STRING_READERS:
        with pytest.raises(ValueError, match="zero denominator"):
            build("1/0")


@pytest.mark.parametrize("bad", ["1.5", " 3 ", "1e3", "1_0", "3/4i", "0x1", ""])
def test_string_parts_read_only_rational_literals(bad):
    # a scalar part is a literal "a" or "a/b", as in ExactScalar.parse, though
    # Fraction reads decimals, exponents and surrounding spaces too
    for build in _STRING_READERS:
        with pytest.raises(ValueError, match="malformed rational literal"):
            build(bad)


def test_str_roundtrip():
    rng = random.Random(11)
    for _ in range(200):
        s = ExactScalar(
            Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
        )
        assert ExactScalar.parse(str(s)) == s


def test_arithmetic_examples():
    a = ExactScalar(Fraction(1), Fraction(2))
    b = ExactScalar(Fraction(3), Fraction(-4))
    assert a + b == ExactScalar(Fraction(4), Fraction(-2))
    assert a - b == ExactScalar(Fraction(-2), Fraction(6))
    assert a * b == ExactScalar(Fraction(11), Fraction(2))
    # (1+2i)/(3-4i) = (1+2i)(3+4i)/25 = (-5+10i)/25
    assert a / b == ExactScalar(Fraction(-1, 5), Fraction(2, 5))
    assert -a == ExactScalar(Fraction(-1), Fraction(-2))
    assert a.abs_squared() == Fraction(5)


def test_field_laws_random():
    rng = random.Random(7)
    for _ in range(300):
        a = ExactScalar(Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
                        Fraction(rng.randint(-6, 6), rng.randint(1, 5)))
        b = ExactScalar(Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
                        Fraction(rng.randint(-6, 6), rng.randint(1, 5)))
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + ONE) == a * b + a
        if not b.is_zero():
            assert (a / b) * b == a


def test_constants_and_zero():
    assert ZERO.is_zero() and not bool(ZERO)
    assert ONE * ONE == ONE
    assert I * I == ExactScalar.of(-1)
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


_PARTS = st.one_of(st.just(Fraction(0)), st.fractions(max_denominator=30))
# real, imaginary and complex scalars
_SCALARS = st.one_of(
    st.builds(ExactScalar, _PARTS, st.just(Fraction(0))),
    st.builds(ExactScalar, st.just(Fraction(0)), _PARTS),
    st.builds(ExactScalar, _PARTS, _PARTS),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_SCALARS, _SCALARS, st.one_of(st.integers(-9, 9), st.fractions(max_denominator=9)))
def test_arithmetic_matches_componentwise_formula(a, b, k):
    cases = [
        (a * b, a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re),
        (a + b, a.re + b.re, a.im + b.im),
        (a - b, a.re - b.re, a.im - b.im),
        (a * k, a.re * k, a.im * k),
        (k * a, a.re * k, a.im * k),
    ]
    for got, re, im in cases:
        assert (got.re, got.im) == (re, im)
        assert str(got) == str(ExactScalar(re, im))


def test_decimal_rational_reads_a_float_at_its_repr():
    assert decimal_rational(2.1) == Fraction(21, 10) != Fraction(2.1)
    assert decimal_rational(0.1) == Fraction(1, 10)
    assert decimal_rational(5) == 5 and decimal_rational("3/4") == Fraction(3, 4)
    x = Fraction(3, 7)
    assert decimal_rational(x) is x
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError):
            decimal_rational(bad)


_TOP = 2**1024 - 2**970  # the least rational float() overflows at, rounding to nearest


@pytest.mark.parametrize("q, double", [
    (0, 0.0), (-3, -3.0), (Fraction(1, 3), 1 / 3), (Fraction(-5, 2), -2.5),
    (Fraction(sys.float_info.max), sys.float_info.max),
    # past the largest double, float() rounds down to it until the overflow
    (_TOP - 1, sys.float_info.max), (Fraction(1 - _TOP), -sys.float_info.max),
    (_TOP, math.inf), (Fraction(-_TOP), -math.inf),
    (10**400, math.inf), (Fraction(-(10**400), 3), -math.inf),
    (Fraction(1, 10**400), 0.0),
], ids=["0", "-3", "1/3", "-5/2", "max", "below_top", "-below_top", "top", "-top", "huge", "-huge", "tiny"])
def test_to_double_is_float_or_inf_of_the_sign(q, double):
    # the one gate from exact values to doubles
    assert to_double(q) == double
    assert math.copysign(1, to_double(q)) == math.copysign(1, double)
