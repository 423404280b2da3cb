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
    got = gamma_abs(ExactScalar(Fraction(1), Fraction(1)))
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


def test_deterministic_cache():
    z = ExactScalar(Fraction(3, 2), Fraction(1))
    assert gamma_abs(z) == gamma_abs(z)


def test_within_1e_12_of_mpmath_gamma():
    # real and complex points with Re z in (0, 40], against mpmath.gamma at 256 bits
    rng = random.Random(23)
    points = [ExactScalar(Fraction(1, 1000), Fraction(0)), ExactScalar(Fraction(40), Fraction(0)),
              ExactScalar(Fraction(1, 7), Fraction(-9))]
    for _ in range(40):
        re = Fraction(rng.randint(1, 4000), 100)
        im = Fraction(rng.randint(-2000, 2000), 100) if rng.random() < 0.75 else Fraction(0)
        points.append(ExactScalar(re, im))
    for z in points:
        got = gamma_abs(z)
        with mpmath.workprec(256):
            want = abs(mpmath.gamma(mpmath.mpc(mpmath.mpmathify(z.re), mpmath.mpmathify(z.im))))
            assert abs(got - want) / want < 1e-12, z
