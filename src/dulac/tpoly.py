"""Dense polynomials in the logarithm variable t, over ExactScalar.

Coefficients are stored lowest degree first with trailing zeros stripped, so
two equal polynomials always have equal tuples.  The degree of the zero
polynomial is -inf.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm

import mpmath

from .numeric import FLOAT_PRECISION, abs_scalar, to_mpf
from .scalars import _ZERO_Q, ExactScalar, ZERO

NEG_INF = float("-inf")


def _strip(coeffs) -> tuple:
    cs = list(coeffs)
    while cs and cs[-1].is_zero():
        cs.pop()
    return tuple(cs)


def _integer_parts(coeffs) -> tuple:
    """(d, re, im): every coefficient is (re[k] + im[k] i) / d with integers
    re[k], im[k] and d the lcm of all the part denominators; im is None when
    every imaginary part is zero."""
    d = lcm(*(c.re.denominator for c in coeffs), *(c.im.denominator for c in coeffs))
    re = [c.re.numerator * (d // c.re.denominator) for c in coeffs]
    im = [c.im.numerator * (d // c.im.denominator) for c in coeffs]
    return d, re, im if any(im) else None


def _convolve(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b, i):
                out[k] += x * y
    return out


def _product(a: tuple, b: tuple) -> "TPoly":
    """Product of two nonzero coefficient tuples over a common denominator.

    The numerators are convolved as Gaussian integers, skipping the
    imaginary convolutions of a real factor, and each output coefficient is
    reduced once, so a product costs one gcd per output part instead of a
    dozen per coefficient pair (the content/primitive-part idea of von zur
    Gathen & Gerhard, Modern Computer Algebra, ch. 6).
    """
    da, a_re, a_im = _integer_parts(a)
    db, b_re, b_im = _integer_parts(b)
    re = _convolve(a_re, b_re)
    im = [0] * len(re)
    if a_im is not None and b_im is not None:
        re = [x - y for x, y in zip(re, _convolve(a_im, b_im))]
    if b_im is not None:
        im = _convolve(a_re, b_im)
    if a_im is not None:
        im = [x + y for x, y in zip(im, _convolve(a_im, b_re))]
    d = da * db
    return TPoly(tuple(
        ExactScalar(Fraction(x, d), Fraction(y, d) if y else _ZERO_Q) for x, y in zip(re, im)
    ))


@dataclass(frozen=True)
class TPoly:
    """Polynomial in t with exact complex coefficients."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _strip(self.coeffs))

    # -- construction ---------------------------------------------------

    @staticmethod
    def const(value) -> "TPoly":
        if isinstance(value, ExactScalar):
            return TPoly((value,))
        return TPoly((ExactScalar.of(value),))

    @staticmethod
    def of(*values) -> "TPoly":
        """TPoly.of(a0, a1, ...) with int/Fraction/str/ExactScalar entries."""
        out = []
        for v in values:
            out.append(v if isinstance(v, ExactScalar) else ExactScalar.parse(v) if isinstance(v, str) else ExactScalar.of(v))
        return TPoly(tuple(out))

    ZERO: "TPoly" = None  # set after class definition
    ONE: "TPoly" = None
    T: "TPoly" = None

    # -- queries ----------------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, j: int) -> ExactScalar:
        return self.coeffs[j] if 0 <= j < len(self.coeffs) else ZERO

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "TPoly") -> "TPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return TPoly(tuple(self[j] + other[j] for j in range(n)))

    def __sub__(self, other: "TPoly") -> "TPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return TPoly(tuple(self[j] - other[j] for j in range(n)))

    def __neg__(self) -> "TPoly":
        return TPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other) -> "TPoly":
        if isinstance(other, (ExactScalar, int, Fraction)):
            k = other if isinstance(other, ExactScalar) else ExactScalar.of(other)
            return TPoly(tuple(c * k for c in self.coeffs))
        if not isinstance(other, TPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return TPoly(())
        return _product(self.coeffs, other.coeffs)

    __rmul__ = __mul__

    def deriv(self) -> "TPoly":
        return TPoly(tuple(c * j for j, c in enumerate(self.coeffs) if j > 0))

    def shift_apply(self, lam: ExactScalar) -> "TPoly":
        """Apply the operator (lam + d/dt) to this polynomial."""
        return self * lam + self.deriv()

    def __call__(self, z: ExactScalar) -> ExactScalar:
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def taylor_at(self, z: ExactScalar) -> list:
        """Coefficients [p(z), p'(z)/1!, p''(z)/2!, ...] up to the degree."""
        if self.is_zero():
            return [ZERO]
        out = []
        p = self
        i = 0
        while not p.is_zero():
            out.append(p(z) * Fraction(1, factorial(i)))
            p = p.deriv()
            i += 1
        return out

    # -- formatting ---------------------------------------------------------

    def serialize(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    @staticmethod
    def parse(values) -> "TPoly":
        """Polynomial from a JSON list of scalar literals, lowest degree first."""
        if not isinstance(values, list):
            raise ValueError(f"poly: coefficients must be a list, got {values!r}")
        return TPoly(tuple(ExactScalar.parse(v) for v in values))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for j, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            parts.append(f"({c})" + ("" if j == 0 else f"*t^{j}" if j > 1 else "*t"))
        return " + ".join(parts)


TPoly.ZERO = TPoly(())
TPoly.ONE = TPoly((ExactScalar.of(1),))
TPoly.T = TPoly((ZERO, ExactScalar.of(1)))


def poly_norm(p: TPoly, R, prec: int = FLOAT_PRECISION) -> mpmath.mpf:
    """Weighted coefficient norm: sum of |a_j| R^j over the coefficients.

    R must exceed 1 so that the norm is monotone in the degree direction and
    submultiplicative.  The result is an mpf at prec bits.
    """
    Rq = Fraction(R) if not isinstance(R, float) else Fraction(repr(R))
    if Rq <= 1:
        raise ValueError(f"poly_norm: weight R must exceed 1, got {R}")
    with mpmath.workprec(prec):
        Rm = to_mpf(Rq, prec)
        acc = mpmath.mpf(0)
        power = mpmath.mpf(1)
        for c in p.coeffs:
            if not c.is_zero():
                acc += abs_scalar(c, prec) * power
            power *= Rm
        return acc
