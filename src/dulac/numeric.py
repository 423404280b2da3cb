"""Small helpers for high-precision floating point via mpmath.

All numeric (non-exact) evaluation in the library runs at FLOAT_PRECISION
bits of mantissa unless a caller asks for more.  Values returned by these
helpers are mpmath mpf/mpc objects, which are immutable and keep the
precision they were created with.
"""

from __future__ import annotations

import mpmath

FLOAT_PRECISION = 128


def to_mpf(x, prec: int = FLOAT_PRECISION) -> mpmath.mpf:
    """Convert int/Fraction/float/str to mpf, rounding once at prec bits."""
    with mpmath.workprec(prec):
        return mpmath.mpmathify(x)


def abs_scalar(s, prec: int = FLOAT_PRECISION) -> mpmath.mpf:
    """|a + bi| for an ExactScalar, computed as sqrt of the exact a^2 + b^2."""
    sq = s.abs_squared()
    if sq == 0:
        return mpmath.mpf(0)
    with mpmath.workprec(prec):
        return mpmath.sqrt(mpmath.mpmathify(sq))
