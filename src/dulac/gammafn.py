"""|Gamma(z)| on the right half plane Re z > 0, with relative error at most 1e-12.

The evaluator uses a Spouge-parameter variant of the Lanczos series for
Gamma.  The truncation error of the series with parameter a is bounded by
a^(-1/2) * (2*pi)^(-(a+1/2)) relative, valid for Re z >= 1; a = 15 is the
least parameter that puts it below 1e-12 / 8, and the series runs at 144
bits.  Arguments with Re z < 1 are first shifted with Gamma(z) =
Gamma(z+1)/z.  Arguments with Re z <= 0 are out of scope and raise
DomainError; no reflection formula is attempted.
"""

from __future__ import annotations

from functools import cache

import mpmath

from .errors import DomainError
from .scalars import ExactScalar

_A = 15
_PREC = 144  # 2 * ceil(log2(1e12)) + 64 bits


@cache
def _spouge_coeffs() -> list:
    """The series coefficients, built on the first evaluation, not at import."""
    with mpmath.workprec(_PREC):
        cs = [mpmath.sqrt(2 * mpmath.pi)]
        for k in range(1, _A):
            ck = mpmath.mpf(-1) ** (k - 1) / mpmath.factorial(k - 1)
            ck *= mpmath.power(_A - k, k - mpmath.mpf(1) / 2)
            ck *= mpmath.exp(_A - k)
            cs.append(ck)
    return cs


def gamma_abs(z) -> mpmath.mpf:
    """|Gamma(z)| with relative error at most 1e-12, for Re z > 0.

    Accepts ExactScalar, Fraction or int.  No value is cached here, only the
    series coefficients: the norm tables of dulac.norms keep each value they
    need.
    """
    if not isinstance(z, ExactScalar):
        z = ExactScalar.of(z)
    if z.re <= 0:
        raise DomainError(f"gamma_abs: Re z must be positive, got z = {z.re}+{z.im}i")
    cs = _spouge_coeffs()
    with mpmath.workprec(_PREC):
        z = mpmath.mpc(mpmath.mpmathify(z.re), mpmath.mpmathify(z.im))
        shift = mpmath.mpf(1)
        while mpmath.re(z) < 1:
            shift *= abs(z)
            z = z + 1
        w = z + _A - 1
        zm1 = z - 1
        s = cs[0]
        for k in range(1, _A):
            s += cs[k] / (zm1 + k)
        val = abs(mpmath.power(w, z - mpmath.mpf(1) / 2)) * mpmath.exp(-mpmath.re(w)) * abs(s)
        return val / shift
