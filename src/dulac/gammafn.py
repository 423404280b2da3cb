"""|Gamma(z)| on the right half plane Re z > 0, with relative error at most 1e-12.

The evaluator uses a Spouge-parameter variant of the Lanczos series for
Gamma.  The truncation error of the series with parameter a is bounded by
a^(-1/2) * (2*pi)^(-(a+1/2)) relative, valid for Re z >= 1; a = 15 is the
least parameter that puts it below 1e-12 / 8, and the series runs at 144
bits.  Arguments with Re z < 1 are first shifted with Gamma(z) =
Gamma(z+1)/z.  Arguments with Re z <= 0 are out of scope and raise
DomainError; no reflection formula is attempted.

The arithmetic runs on raw mpmath.libmp values, whatever the caller's
mpmath context: z is rounded down to 144 bits, as mpmathify rounds a
Fraction, and every later step rounds to nearest at 144 bits, the steps of
mpf/mpc arithmetic inside mpmath.workprec(144).  The series coefficients
are literals, the 144-bit values of

    c_0 = sqrt(2 pi),  c_k = (-1)^(k-1) / (k-1)! * (a-k)^(k-1/2) * e^(a-k),

as mpf arithmetic at 144 bits computes them (tests/util.py recomputes them).
"""

from __future__ import annotations

import mpmath
from mpmath.libmp import (
    fhalf, fone, from_int, from_rational, fzero, mpc_abs, mpc_add, mpc_add_mpf, mpc_mpf_div, mpc_pow, mpc_sub_mpf,
    mpf_cmp, mpf_div, mpf_exp, mpf_mul, mpf_neg, round_nearest,
)

from .errors import DomainError
from .scalars import ExactScalar

_A = 15
_PREC = 144  # 2 * ceil(log2(1e12)) + 64 bits
_RND = round_nearest

# c_0, ..., c_{a-1} as raw (sign, man, exp, bc) values
_SPOUGE = (
    (0, 0xa06c98ffb1382cb2be520fd739167717c67d, -142, 144),
    (0, 0x22548a9a02d2783d12cf828083572cec9c83, -119, 142),
    (1, 0x278d6d46a74aee25704ef72bc80ae5760437, -117, 142),
    (0, 0x9ada2071e2d870b2fd4b73fb3a5a4e8dab5f, -118, 144),
    (1, 0xa80b374fb4020db71ea4a4d9fa7284c87551, -118, 144),
    (0, 0xdd6c687b7ca873445413c2ae0a7335e7f56d, -119, 144),
    (1, 0xb68677122c12320e2d3633997ccf7e4a5a27, -120, 144),
    (0, 0x5daeb6728425dbd82525f62cf975775a1f1, -117, 139),
    (1, 0x39df7ea7588330027b7106a6f6dee04a46c7, -123, 142),
    (0, 0x5066af083c27c9935eeee8e84e8878805501, -127, 143),
    (1, 0xdf45a775439226f1fe1627792d81fb822725, -133, 144),
    (0, 0xfc6d293347cd0365acc9c3feac19fc50efed, -139, 144),
    (1, 0x4f0c586b6f0741c3035fcbdb819622fbe9a5, -145, 143),
    (0, 0xbb64fe5a8c0970278254221c5f2def22cf85, -157, 144),
    (1, 0x3bff09533cac64c15cc24dd3342ae539e8fd, -173, 142),
)
# the ints 0, ..., a as raw values
_INTS = tuple(from_int(k) for k in range(_A + 1))


def gamma_abs(z) -> mpmath.mpf:
    """|Gamma(z)| with relative error at most 1e-12, for Re z > 0.

    Accepts ExactScalar, Fraction or int.  No value is cached here: the norm
    tables of dulac.norms keep each value they need.
    """
    if not isinstance(z, ExactScalar):
        z = ExactScalar.of(z)
    if z.re <= 0:
        raise DomainError(f"gamma_abs: Re z must be positive, got z = {z.re}+{z.im}i")
    z = (from_rational(z.re.numerator, z.re.denominator, _PREC), from_rational(z.im.numerator, z.im.denominator, _PREC))
    shift = fone
    while mpf_cmp(z[0], fone) < 0:
        shift = mpf_mul(shift, mpc_abs(z, _PREC, _RND), _PREC, _RND)
        z = mpc_add_mpf(z, fone, _PREC, _RND)
    w = mpc_sub_mpf(mpc_add_mpf(z, _INTS[_A], _PREC, _RND), fone, _PREC, _RND)
    zm1 = mpc_sub_mpf(z, fone, _PREC, _RND)
    # c_0 as a complex value with a zero imaginary part: adding it is the
    # mpf + mpc step of mpmath, bit for bit
    s = (_SPOUGE[0], fzero)
    for k in range(1, _A):
        s = mpc_add(s, mpc_mpf_div(_SPOUGE[k], mpc_add_mpf(zm1, _INTS[k], _PREC, _RND), _PREC, _RND), _PREC, _RND)
    val = mpc_abs(mpc_pow(w, mpc_sub_mpf(z, fhalf, _PREC, _RND), _PREC, _RND), _PREC, _RND)
    val = mpf_mul(mpf_mul(val, mpf_exp(mpf_neg(w[0]), _PREC, _RND), _PREC, _RND), mpc_abs(s, _PREC, _RND), _PREC, _RND)
    return mpmath.mp.make_mpf(mpf_div(val, shift, _PREC, _RND))
