"""Gamma modulus: closed-form oracle, recurrence, and asymptotics.

The implementation is independent of mpmath.gamma, so the oracle
|Gamma(1+i)|^2 = pi / sinh(pi) is an external cross-check of the whole
series-plus-shift evaluation path.
"""

import random
from fractions import Fraction

import mpmath
import pytest

from dulac.errors import DomainError
from dulac.gammafn import gamma_abs
from dulac.scalars import ExactScalar


def test_closed_form_oracle():
    got = gamma_abs(ExactScalar(Fraction(1), Fraction(1)), tol=1e-12)
    with mpmath.workprec(256):
        want = mpmath.sqrt(mpmath.pi / mpmath.sinh(mpmath.pi))
        assert abs(got - want) / want < 1e-12


def test_real_values():
    assert abs(gamma_abs(5) - 24) < 1e-10
    with mpmath.workprec(128):
        assert abs(gamma_abs(Fraction(1, 2)) - mpmath.sqrt(mpmath.pi)) < 1e-12
    assert abs(gamma_abs(1) - 1) < 1e-14


def test_recurrence_random():
    # |Gamma(z+1)| = |z| |Gamma(z)|, exercised across the shift threshold
    rng = random.Random(17)
    with mpmath.workprec(128):
        for _ in range(50):
            re = Fraction(rng.randint(1, 16), 4)
            im = Fraction(rng.randint(-16, 16), 4)
            z = ExactScalar(re, im)
            lhs = gamma_abs(z + ExactScalar.of(1))
            rhs = mpmath.sqrt(mpmath.mpf(float(z.abs_squared()))) * gamma_abs(z)
            assert abs(lhs - rhs) / rhs < 1e-11


def test_ratio_asymptotic():
    # |Gamma(z)/Gamma(z+1/2)| sqrt(z) -> 1 like 1 + 1/(8z)
    with mpmath.workprec(128):
        for z in (100, 1000, 10000):
            r = gamma_abs(z) / gamma_abs(Fraction(2 * z + 1, 2)) * mpmath.sqrt(z)
            assert abs(r - 1) < 10.0 / z


def test_domain_error():
    for bad in (0, -1, Fraction(-1, 2), ExactScalar(Fraction(-1), Fraction(2))):
        with pytest.raises(DomainError):
            gamma_abs(bad)


def test_tolerance_outside_unit_interval_rejected():
    for tol in (0, 1, -1e-3, 2.0, float("nan")):
        with pytest.raises(ValueError, match="gamma_abs: tolerance must lie in"):
            gamma_abs(2, tol)


def test_deterministic_cache():
    z = ExactScalar(Fraction(3, 2), Fraction(1))
    assert gamma_abs(z) == gamma_abs(z)


def test_tighter_tolerance_agrees():
    z = ExactScalar(Fraction(7, 3), Fraction(-2))
    a = gamma_abs(z, tol=1e-10)
    b = gamma_abs(z, tol=1e-20)
    assert abs(a - b) / b < 1e-10
