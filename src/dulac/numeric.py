"""Small helpers for high-precision floating point via mpmath.

All numeric (non-exact) evaluation in the library runs at FLOAT_PRECISION
bits of mantissa unless a caller asks for more.  Values returned by these
helpers are mpmath mpf/mpc objects, which are immutable and keep the
precision they were created with.
"""

from __future__ import annotations

from functools import lru_cache

import mpmath
from mpmath.libmp import fone, from_rational, fzero, mpf_add, mpf_mul, mpf_sqrt, round_nearest

from .scalars import decimal_rational
from .tpoly import TPoly

FLOAT_PRECISION = 128


def to_mpf(x, prec: int = FLOAT_PRECISION) -> mpmath.mpf:
    """Convert int/Fraction/float/str to mpf, rounding once at prec bits."""
    with mpmath.workprec(prec):
        return mpmath.mpmathify(x)


def _sqrt_rational(num: int, den: int, prec: int) -> tuple:
    """sqrt(num / den) as a raw mpf value: num / den rounded once at prec bits
    as mpmathify rounds a Fraction, then the root rounded to nearest."""
    return mpf_sqrt(from_rational(num, den, prec), prec, round_nearest)


def abs_scalar(s, prec: int = FLOAT_PRECISION) -> mpmath.mpf:
    """|a + bi| for an ExactScalar, computed as sqrt of the exact a^2 + b^2."""
    sq = s.abs_squared()
    return mpmath.mp.make_mpf(_sqrt_rational(sq.numerator, sq.denominator, prec))


@lru_cache(maxsize=16, typed=True)
def _norm_radix(R, prec: int) -> tuple:
    """The norm weight R as a raw mpf value, rounded at prec bits as to_mpf
    rounds a Fraction; a float R is read at its repr (decimal_rational)."""
    Rq = decimal_rational(R)
    if Rq <= 1:
        raise ValueError(f"poly_norm: weight R must exceed 1, got {R}")
    return from_rational(Rq.numerator, Rq.denominator, prec)


def poly_norm(p: TPoly, R, prec: int = FLOAT_PRECISION) -> mpmath.mpf:
    """Weighted coefficient norm: sum of |a_j| R^j over the coefficients.

    R must exceed 1 so that the norm is monotone in the degree direction and
    submultiplicative.  The result is an mpf at prec bits.  Each |a_j| is
    rounded as abs_scalar rounds it, from the exact (re_j^2 + im_j^2) / den^2.
    The sum runs on raw mpmath.libmp values at prec bits, rounding to nearest,
    as mpf arithmetic inside mpmath.workprec(prec) does.
    """
    Rm = _norm_radix(R, prec)
    den2 = p.den * p.den
    im = p.im or (0,) * len(p.re)
    acc, power = fzero, fone
    for x, y in zip(p.re, im):
        sq = x * x + y * y
        if sq:
            acc = mpf_add(acc, mpf_mul(_sqrt_rational(sq, den2, prec), power, prec, round_nearest),
                          prec, round_nearest)
        power = mpf_mul(power, Rm, prec, round_nearest)
    return mpmath.mp.make_mpf(acc)
