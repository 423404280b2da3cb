"""Exact complex scalars with rational real and imaginary parts."""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import gcd
from typing import Union

RationalLike = Union[int, Fraction, str]

# one rational part: "3", "-3", "3/4", "-3/4"
_PART = r"[+-]?\d+(?:/\d+)?"
_PART_RE = _re.compile(_PART)
_SCALAR_RE = _re.compile(rf"(?P<re>{_PART})?(?:(?P<im>{_PART})i)?")

_ZERO_Q = Fraction(0)


def parse_rational(text: str) -> Fraction:
    """The Fraction of a rational literal read from input, "a" or "a/b" with
    an optional sign: no whitespace, decimal point, exponent or underscore.
    A malformed literal, a zero denominator included, raises ValueError."""
    if not isinstance(text, str) or _PART_RE.fullmatch(text) is None:
        raise ValueError(f"malformed rational literal {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def decimal_rational(x) -> Fraction:
    """x as a Fraction, a float read at its repr, the shortest decimal that
    reads back as it (2.1 is 21/10, not its binary value).  A non-finite
    float raises ValueError."""
    if isinstance(x, Fraction):
        return x
    return Fraction(repr(x)) if isinstance(x, float) else Fraction(x)


def _rational_literal(num: int, den: int) -> str:
    """The literal "p/q" of num / den (den > 0) in lowest terms, as a Fraction
    prints it in ExactScalar literals; one gcd, no Fraction built."""
    g = gcd(num, den)
    return f"{num // g}/{den // g}"


def _as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rational(x)
    raise TypeError(f"not a rational value: {x!r}")


class Value:
    """Base of the immutable value classes.

    A subclass keeps its data in __slots__, sets them in its constructor
    through the slot setters that slot_setters binds once per class, at
    module level, and names its constructor fields in _fields.  From those
    the base derives the repr Name(field=value, ...), equality with a value
    of the same class, the hash of the field tuple, and a pickle that
    rebuilds the value through the class.  Setting or deleting an attribute
    raises AttributeError.  A subclass that writes out __eq__ writes out
    __hash__ too: Python sets __hash__ to None in a class that defines
    __eq__ alone.
    """

    __slots__ = ()
    _fields: tuple = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __reduce__(self):
        return type(self), self._values()

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        listed = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({listed})"


def slot_setters(cls, *names: str) -> tuple:
    """The bound __set__ of each named slot of cls, every slot in __slots__
    order when none is named: setter(obj, value) stores value in the slot
    in C, past the refusing __setattr__ of Value, with no attribute lookup
    by name."""
    return tuple(cls.__dict__[name].__set__ for name in names or cls.__slots__)


class ExactScalar(Value):
    """A complex number a + b*i with exact rational a, b.

    Immutable; all arithmetic is exact.  Division by zero raises
    ZeroDivisionError like the underlying Fraction arithmetic.
    """

    __slots__ = _fields = ("re", "im")

    def __init__(self, re: RationalLike, im: RationalLike):
        if not isinstance(re, Fraction) or not isinstance(im, Fraction):
            re, im = _as_fraction(re), _as_fraction(im)
        _set_re(self, re)
        _set_im(self, im)

    def __eq__(self, other) -> bool:
        if other.__class__ is not ExactScalar:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    # -- construction ------------------------------------------------

    @staticmethod
    def of(re: RationalLike, im: RationalLike = 0) -> "ExactScalar":
        return ExactScalar(_as_fraction(re), _as_fraction(im))

    @staticmethod
    def parse(text: str) -> "ExactScalar":
        """Parse the canonical forms "a/b", "a", "a/b+c/di", "a/b-c/di", "c/di".

        No whitespace, lowercase i, decimal points rejected: scalars are exact.
        A malformed literal, a zero denominator included, raises ValueError.
        """
        if not isinstance(text, str):
            raise ValueError(f"scalar parse: expected string, got {text!r}")
        m = _SCALAR_RE.fullmatch(text)
        if m is None or (m.group("re") is None and m.group("im") is None):
            raise ValueError(f"scalar parse: malformed scalar literal {text!r}")
        re_part = parse_rational(m.group("re")) if m.group("re") else Fraction(0)
        im_part = parse_rational(m.group("im")) if m.group("im") else Fraction(0)
        return ExactScalar(re_part, im_part)

    # -- arithmetic --------------------------------------------------

    def __add__(self, other: "ExactScalar") -> "ExactScalar":
        return ExactScalar(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ExactScalar") -> "ExactScalar":
        return ExactScalar(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "ExactScalar":
        return ExactScalar(-self.re, -self.im)

    def __mul__(self, other) -> "ExactScalar":
        if isinstance(other, ExactScalar):
            return ExactScalar(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, (int, Fraction)):
            return ExactScalar(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ExactScalar":
        if isinstance(other, (int, Fraction)):
            return ExactScalar(self.re / other, self.im / other)
        if not isinstance(other, ExactScalar):
            return NotImplemented
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero ExactScalar")
        return ExactScalar(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def abs_squared(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- formatting --------------------------------------------------

    def __str__(self) -> str:
        s = f"{self.re.numerator}/{self.re.denominator}"
        if self.im != 0:
            sign = "+" if self.im > 0 else "-"
            mag = abs(self.im)
            s += f"{sign}{mag.numerator}/{mag.denominator}i"
        return s

    def __repr__(self) -> str:
        return f"ExactScalar({self})"


_set_re, _set_im = slot_setters(ExactScalar)

ZERO = ExactScalar.of(0)
ONE = ExactScalar.of(1)
I = ExactScalar.of(0, 1)
