"""Gamma modulus: closed-form oracle, recurrence, and asymptotics.

The implementation is independent of mpmath.gamma, so the oracle
|Gamma(1+i)|^2 = pi / sinh(pi) is an external cross-check of the whole
series-plus-shift evaluation path.  The raw-value kernel is also checked bit
for bit against the same series written with mpf/mpc objects.
"""

import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dulac import gammafn
from dulac.errors import DomainError
from dulac.gammafn import gamma_abs
from dulac.scalars import ExactScalar

from .util import gamma_abs_oracle, spouge_coeffs_oracle


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


def test_spouge_table_is_the_144_bit_coefficients():
    assert list(gammafn._SPOUGE) == [c._mpf_ for c in spouge_coeffs_oracle()]


# Re z from 1/300 (the shift loop runs up to 300 times) to 4000
_parts = st.fractions(min_value=Fraction(1, 300), max_value=4000, max_denominator=300)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(re=_parts, im=st.one_of(st.just(Fraction(0)), st.fractions(-400, 400, max_denominator=300)))
@example(re=Fraction(1), im=Fraction(0))
@example(re=Fraction(1), im=Fraction(-5, 3))
@example(re=Fraction(1, 3), im=Fraction(1, 3))
@example(re=Fraction(999, 1000), im=Fraction(0))
@example(re=Fraction(1, 300), im=Fraction(7, 2))
def test_gamma_abs_equals_mpf_oracle_in_any_context(re, im):
    """gamma_abs equals the mpf-object series bit for bit, real and complex
    z, below, at and above Re z = 1, whatever the caller's precision."""
    z = ExactScalar(re, im)
    want = gamma_abs_oracle(z)._mpf_
    for prec in (53, 300):
        with mpmath.workprec(prec):
            assert gamma_abs(z)._mpf_ == want
