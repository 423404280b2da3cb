"""Small helpers for high-precision floating point via mpmath.

All numeric (non-exact) evaluation in the library runs at FLOAT_PRECISION
bits of mantissa unless a caller asks for more.  Values returned by these
helpers are mpmath mpf/mpc objects, which are immutable and keep the
precision they were created with; the raw_* arithmetic takes and returns
raw mpmath.libmp values.
"""

from __future__ import annotations

from functools import cmp_to_key, lru_cache, partial

import mpmath
from mpmath.libmp import (
    fone, from_rational, fzero, mpf_add, mpf_cmp, mpf_div, mpf_mul, mpf_pow_int, mpf_sqrt, round_nearest,
)

from .scalars import decimal_rational
from .tpoly import TPoly

FLOAT_PRECISION = 128

# Arithmetic on raw mpmath.libmp values at FLOAT_PRECISION bits, rounding to
# nearest as mpf arithmetic inside mpmath.workprec(FLOAT_PRECISION) does,
# whatever the caller's mpmath context; by_value is the max/sort key of raw values.
raw_add, raw_mul, raw_div, raw_pow = (
    partial(f, prec=FLOAT_PRECISION, rnd=round_nearest) for f in (mpf_add, mpf_mul, mpf_div, mpf_pow_int)
)
by_value = cmp_to_key(mpf_cmp)


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
def _norm_powers(R, prec: int) -> list:
    """[R^0, R^1, ...] as raw mpf values: R rounded at prec bits as to_mpf
    rounds a Fraction (a float R read at its repr, as decimal_rational reads
    it), each further power the one before times R, rounded to nearest at
    prec.  poly_norm extends the list to the longest polynomial it weighs."""
    Rq = decimal_rational(R)
    if Rq <= 1:
        raise ValueError(f"poly_norm: weight R must exceed 1, got {R}")
    return [fone, from_rational(Rq.numerator, Rq.denominator, prec)]


def poly_norm(p: TPoly, R, prec: int = FLOAT_PRECISION) -> mpmath.mpf:
    """Weighted coefficient norm: sum of |a_j| R^j over the coefficients.

    R must exceed 1 so that the norm is monotone in the degree direction and
    submultiplicative.  The result is an mpf at prec bits.  Each |a_j| is
    rounded as abs_scalar rounds it, from the exact (re_j^2 + im_j^2) / den^2.
    The sum runs on raw mpmath.libmp values at prec bits, rounding to nearest,
    as mpf arithmetic inside mpmath.workprec(prec) does.
    """
    powers = _norm_powers(R, prec)
    while len(powers) < len(p.re):
        powers.append(mpf_mul(powers[-1], powers[1], prec, round_nearest))
    den2 = p.den * p.den
    acc = fzero
    for x, y, power in zip(p.re, p.im or (0,) * len(p.re), powers):
        sq = x * x + y * y
        if sq:
            acc = mpf_add(acc, mpf_mul(_sqrt_rational(sq, den2, prec), power, prec, round_nearest),
                          prec, round_nearest)
    return mpmath.mp.make_mpf(acc)
