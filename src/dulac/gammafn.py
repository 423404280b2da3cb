"""|Gamma(z)| on the right half plane Re z > 0.

The evaluator uses a Spouge-parameter variant of the Lanczos series for
Gamma.  The truncation error of the series with parameter a is bounded by
a^(-1/2) * (2*pi)^(-(a+1/2)) relative, valid for Re z >= 1, so the parameter
is chosen from the requested tolerance and arguments with Re z < 1 are first
shifted with Gamma(z) = Gamma(z+1)/z.  Arguments with Re z <= 0 are out of
scope and raise DomainError; no reflection formula is attempted.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath

from .errors import DomainError
from .numeric import FLOAT_PRECISION
from .scalars import ExactScalar


@lru_cache(maxsize=64)
def _spouge_a(tol: float) -> int:
    a = 3
    while math.exp(-0.5 * math.log(a) - (a + 0.5) * math.log(2 * math.pi)) > tol / 8:
        a += 1
    return a


@lru_cache(maxsize=None)
def _spouge_coeffs(a: int, prec: int) -> list:
    with mpmath.workprec(prec):
        cs = [mpmath.sqrt(2 * mpmath.pi)]
        for k in range(1, a):
            ck = mpmath.mpf(-1) ** (k - 1) / mpmath.factorial(k - 1)
            ck *= mpmath.power(a - k, k - mpmath.mpf(1) / 2)
            ck *= mpmath.exp(a - k)
            cs.append(ck)
    return cs


def _working_prec(tol: float) -> int:
    return max(FLOAT_PRECISION, 2 * int(math.ceil(-math.log2(tol))) + 64)


def _gamma_abs_mpc(z: mpmath.mpc, tol: float, prec: int) -> mpmath.mpf:
    a = _spouge_a(tol)
    cs = _spouge_coeffs(a, prec)
    with mpmath.workprec(prec):
        shift = mpmath.mpf(1)
        while mpmath.re(z) < 1:
            shift *= abs(z)
            z = z + 1
        w = z + a - 1
        zm1 = z - 1
        s = cs[0]
        for k in range(1, a):
            s += cs[k] / (zm1 + k)
        val = abs(mpmath.power(w, z - mpmath.mpf(1) / 2)) * mpmath.exp(-mpmath.re(w)) * abs(s)
        return val / shift


def gamma_abs(z, tol: float = 1e-12) -> mpmath.mpf:
    """|Gamma(z)| with relative error at most tol, for Re z > 0.

    Accepts ExactScalar, Fraction or int.  No value is cached here, only the
    series parameter per tolerance: the norm tables of mseries keep each
    value they need.
    """
    if not 0 < tol < 1:
        raise ValueError(f"gamma_abs: tolerance must lie in (0, 1), got {tol}")
    if not isinstance(z, ExactScalar):
        z = ExactScalar.of(z)
    if z.re <= 0:
        raise DomainError(f"gamma_abs: Re z must be positive, got z = {z.re}+{z.im}i")
    prec = _working_prec(tol)
    with mpmath.workprec(prec):
        zc = mpmath.mpc(mpmath.mpmathify(z.re), mpmath.mpmathify(z.im))
    return _gamma_abs_mpc(zc, tol, prec)
