"""Complex exponents as exact rational coordinate vectors over a declared basis.

A basis is a finite list of complex numbers that the user promises to be
linearly independent over the rationals.  Exponents never store floating
point: each one is a vector of exact rational coordinates, stored
content-free over the integers like a TPoly (FLINT's fmpq_poly layout), and
real or imaginary parts are only ever produced as interval enclosures: an
exact rational midpoint with the radius the basis literals leave open (the
midpoint-radius rule of Arb: an exact midpoint carries only its input
radius).  Linear arithmetic runs on ints, and each basis keeps the parts of
its entries as int weights over one denominator, so an exponent's value is
one int triple (d, a, b), Re = a / d and Im = b / d at the midpoints, summed
once: the polynomial kernels of tpoly take it as is, a sign over an exact
basis is one int cross-multiplication, and Re or Im costs a Fraction only
where a caller reads re_mid or im_mid.

Basis entries come in two flavors, distinguished by their literal form:

* exact: integer, fraction or exact complex literals such as "1", "-3/2",
  "1+1i".  Their enclosures have radius zero and comparisons terminate.
* approximate: literals containing a decimal point, such as
  "1.41421356237309504880".  The literal fixes the value to half a unit in
  its last decimal place, and that floor is the radius of the entry's
  enclosure.

Ordering convention: exponents are compared by real part first and ties are
broken by imaginary part, ascending.  The imaginary tie-break is a library
convention chosen to make the order total; any fixed tie rule would do.

Every exponent carries one sort key, set at construction: over an exact
basis its value (Re, Im), so no enclosure is ever built (an integral part
enters as an int, so an integral exponent's key is two ints, compared in C
with no Fraction built); otherwise cmp_to_key(exp_compare) of the exponent,
which certifies each comparison from the interval enclosures or raises
UndecidableComparison when an enclosure contains zero.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from functools import cmp_to_key
from math import gcd, isinf, lcm
from operator import add, mul, sub
from typing import Sequence

from .errors import BasisMismatch, ExactValueRequired, UndecidableComparison
from .scalars import ExactScalar, Value, _rational_literal, decimal_rational, parse_rational, slot_setters, to_double

# one entry part: rational "a" / "a/b" or decimal "a.b"
_EPART = r"[+-]?\d+(?:\.\d+|/\d+)?"
_ENTRY_RE = _re.compile(rf"^(?P<re>{_EPART})?(?:(?P<im>{_EPART})i)?$")


def _parse_part(text: str) -> tuple[Fraction, Fraction]:
    """Return (value, resolution floor) for one literal part."""
    if "." in text:
        digits = len(text.split(".", 1)[1])
        return Fraction(text), Fraction(1, 2 * 10**digits)
    return parse_rational(text), Fraction(0)


class BasisEntry(Value):
    """One basis element with its enclosure data: the literal, the parts re
    and im it reads as, and the resolution floors re_floor and im_floor of
    the literal, 0 when exact."""

    __slots__ = _fields = ("literal", "re", "im", "re_floor", "im_floor")

    def __init__(self, literal: str, re: Fraction, im: Fraction, re_floor: Fraction, im_floor: Fraction):
        for set_slot, value in zip(_ENTRY_SETTERS, (literal, re, im, re_floor, im_floor)):
            set_slot(self, value)

    @property
    def exact(self) -> bool:
        return self.re_floor == 0 and self.im_floor == 0

    @staticmethod
    def parse(text: str) -> "BasisEntry":
        m = _ENTRY_RE.match(text.strip())
        if m is None or (m.group("re") is None and m.group("im") is None):
            raise ValueError(f"basis entry parse: malformed literal {text!r}")
        re_v, re_f = _parse_part(m.group("re")) if m.group("re") else (Fraction(0), Fraction(0))
        im_v, im_f = _parse_part(m.group("im")) if m.group("im") else (Fraction(0), Fraction(0))
        return BasisEntry(text.strip(), re_v, im_v, re_f, im_f)

    def radius(self, part: str) -> Fraction:
        """Enclosure radius of the chosen part: the literal's floor."""
        return self.re_floor if part == "re" else self.im_floor


class ExponentBasis(Value):
    """A declared list of rationally independent complex numbers; immutable.

    The independence promise is the user's; the library cannot verify it and
    reports a broken promise through UndecidableComparison when two distinct
    coordinate vectors evaluate to provably equal numbers.
    """

    __slots__ = ("entries", "_hash", "exact", "_one_index",
                 "_weight_den", "_re_weights", "_im_weights")
    _fields = ("entries",)

    def __init__(self, entries: Sequence[str]):
        parsed = tuple(BasisEntry.parse(e) if isinstance(e, str) else e for e in entries)
        if not parsed:
            raise ValueError("ExponentBasis: at least one entry is required")
        seen = {}
        for e in parsed:
            key = (e.re, e.im)
            if key in seen:
                raise ValueError(
                    f"ExponentBasis: entries {seen[key]!r} and {e.literal!r} have equal value"
                )
            seen[key] = e.literal
        one = next((i for i, e in enumerate(parsed) if e.exact and e.re == 1 and e.im == 0), None)
        # Re and Im of the entries (midpoints) as ints over one denominator
        w = lcm(*(q.denominator for e in parsed for q in (e.re, e.im)))
        re_w = tuple(e.re.numerator * (w // e.re.denominator) for e in parsed)
        im_w = tuple(e.im.numerator * (w // e.im.denominator) for e in parsed)
        values = (parsed, hash(parsed), all(e.exact for e in parsed), one, w, re_w, im_w)
        for set_slot, value in zip(_BASIS_SETTERS, values):
            set_slot(self, value)

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __hash__(self) -> int:
        # computed once: it hashes the entries' literals, so it holds only in
        # the process that computed it and a pickle rebuilds it from the fields
        return self._hash

    def __repr__(self) -> str:
        lits = ", ".join(e.literal for e in self.entries)
        return f"ExponentBasis([{lits}])"

    # -- construction of exponents ------------------------------------

    def exponent(self, coords: Sequence) -> "Exponent":
        """The exponent with the given rational coordinates; a float is read
        at its repr (0.1 is 1/10)."""
        return Exponent(self, coords)

    def zero(self) -> "Exponent":
        return Exponent._raw(self, 1, (0,) * self.dim)

    def rational(self, value) -> "Exponent":
        """Embed a rational number, provided the basis contains the entry 1;
        a float is read at its repr (0.1 is 1/10)."""
        if self._one_index is None:
            raise BasisMismatch(
                "rational embedding: basis has no entry equal to 1, "
                f"cannot represent {value} as an exponent"
            )
        coords = [0] * self.dim
        coords[self._one_index] = value
        return Exponent(self, coords)

    def parse_exponent(self, coords: Sequence) -> "Exponent":
        """Exponent from JSON coordinates, each a rational string or an
        integer; a bool, a float or anything else is a ValueError, never
        rounded or converted."""
        if not isinstance(coords, (list, tuple)):
            raise ValueError(f"exponent: coordinates must be a list, got {coords!r}")
        return self.exponent([_parse_coordinate(c) for c in coords])


def _parse_coordinate(value) -> Fraction:
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise ValueError(
        f"exponent: coordinate must be a rational string or an integer, got {value!r}"
    )


def _normal(basis: ExponentBasis, den: int, nums) -> "Exponent":
    """The Exponent with coordinates nums[i] / den for an int den > 0 and a
    sequence of ints, with the content divided out."""
    g = gcd(den, *nums)
    if g != 1:
        den //= g
        nums = [a // g for a in nums]
    return Exponent._raw(basis, den, tuple(nums))


class Exponent(Value):
    """Exact rational coordinate vector over an ExponentBasis; immutable.

    Coordinate i is nums[i] / den for an int den > 0 and ints nums with
    gcd(den, *nums) = 1, so equal exponents have equal fields; the hash is
    computed once.  parts is the enclosure midpoint as the int triple
    (d, a, b) in lowest terms, Re = a / d and Im = b / d, exact over an
    exact basis, and key is the sort key of the module docstring; both are
    set at construction.  Built on first read and kept: re_mid and im_mid
    (the midpoints as Fractions) and re_low (a certified lower bound on Re).
    coords, the Fractions for the API edge, are formed on each read.
    """

    __slots__ = ("basis", "den", "nums", "_hash", "parts", "key", "re_mid", "im_mid", "re_low")

    def __new__(cls, basis: ExponentBasis, coords):
        """The exponent with the given rational coordinates, one per basis
        entry; a float is read at its repr (0.1 is 1/10), as
        scalars.decimal_rational reads it.  An int coordinate is its own
        numerator over 1, so it builds no Fraction."""
        cs = [c if type(c) is int else decimal_rational(c) for c in coords]
        if len(cs) != basis.dim:
            raise ValueError(f"exponent: expected {basis.dim} coordinates, got {len(cs)}")
        den = lcm(*(c.denominator for c in cs))
        return Exponent._raw(basis, den, tuple(c.numerator * (den // c.denominator) for c in cs))

    @staticmethod
    def _raw(basis: ExponentBasis, den: int, nums: tuple) -> "Exponent":
        """An Exponent from fields already in content-free form, with its
        parts and key."""
        e = object.__new__(Exponent)
        _set_basis(e, basis)
        _set_den(e, den)
        _set_nums(e, nums)
        _set_hash(e, hash((den, nums)))
        # the midpoint (d, x, y) in lowest terms: Re = x / d and Im = y / d
        d = den * basis._weight_den
        x, y = sum(map(mul, nums, basis._re_weights)), sum(map(mul, nums, basis._im_weights))
        g = gcd(d, x, y)
        d, x, y = parts = d // g, x // g, y // g
        _set_parts(e, parts)
        if basis.exact:
            # an integral Re or Im enters as the int, so that a tie of two
            # integral parts is decided in C
            _set_key(e, (x // d if x % d == 0 else Fraction(x, d), y // d if y % d == 0 else Fraction(y, d)))
        else:
            _set_key(e, _certified_key(e))
        return e

    def __getattr__(self, name):
        # called only for an empty slot: compute the lazy value and keep it
        if name == "re_mid" or name == "im_mid":
            d, x, y = self.parts
            value = Fraction(x if name == "re_mid" else y, d)
        elif name == "re_low":
            value = self.re_mid if self.basis.exact else self.re_mid - self.radius("re")
        else:
            raise AttributeError(f"'Exponent' object has no attribute {name!r}")
        _SETTERS[name](self, value)
        return value

    @property
    def coords(self) -> tuple:
        return tuple(Fraction(a, self.den) for a in self.nums)

    def __reduce__(self):
        return Exponent._raw, (self.basis, self.den, self.nums)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Exponent):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den and (
            self.basis is other.basis or self.basis == other.basis)

    def __repr__(self) -> str:
        return f"Exponent({self.basis!r}, {self})"

    # -- linear arithmetic --------------------------------------------

    def _combine(self, other: "Exponent", op) -> "Exponent":
        """op(self, other) for op = operator.add or operator.sub."""
        if self.basis is not other.basis and self.basis != other.basis:
            raise BasisMismatch(f"exponent arithmetic: bases differ ({self.basis!r} vs {other.basis!r})")
        d, e = self.den, other.den
        if d == e:
            nums = tuple(map(op, self.nums, other.nums))
            return Exponent._raw(self.basis, 1, nums) if d == 1 else _normal(self.basis, d, nums)
        return _normal(self.basis, d * e, [op(a * e, b * d) for a, b in zip(self.nums, other.nums)])

    def __add__(self, other: "Exponent") -> "Exponent":
        return self._combine(other, add)

    def __sub__(self, other: "Exponent") -> "Exponent":
        return self._combine(other, sub)

    def __neg__(self) -> "Exponent":
        return Exponent._raw(self.basis, self.den, tuple(-a for a in self.nums))

    def __mul__(self, k) -> "Exponent":
        """Product by an int, a Fraction or a float read at its repr."""
        if k == 1:
            return self
        q = k if isinstance(k, int) else decimal_rational(k)
        return _normal(self.basis, self.den * q.denominator, [a * q.numerator for a in self.nums])

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not any(self.nums)

    # -- enclosures ----------------------------------------------------

    def radius(self, part: str) -> Fraction:
        return sum(abs(a) * e.radius(part) for a, e in zip(self.nums, self.basis.entries)) / self.den

    def exact_parts(self) -> tuple:
        """parts, the exact value as (d, a, b) with value (a + b i) / d;
        requires every participating entry exact.  The polynomial kernels
        of tpoly read an exponent through this method."""
        if not self.basis.exact:
            for a, e in zip(self.nums, self.basis.entries):
                if a and not e.exact:
                    raise ExactValueRequired(
                        f"exponent value: basis entry {e.literal!r} is approximate; "
                        "an exact complex value cannot be produced"
                    )
        return self.parts

    def value(self) -> ExactScalar:
        """Exact complex value; requires every participating entry exact."""
        self.exact_parts()
        return ExactScalar(self.re_mid, self.im_mid)

    # -- ordering -------------------------------------------------------

    def _sign(self, part: str, shift: Fraction = Fraction(0)) -> int:
        """Certified sign of Re or Im of this exponent minus a rational shift;
        0 only when exactly equal.  An approximate basis encloses it in
        mid +- rad; an enclosure that contains zero without being {0} raises
        UndecidableComparison."""
        if self.basis.exact:
            # the sign of x / d - shift for parts (d, x, y), or of y / d - shift
            d, x, y = self.parts
            v, w = (x if part == "re" else y) * shift.denominator, shift.numerator * d
            return (v > w) - (v < w)
        mid = (self.re_mid if part == "re" else self.im_mid) - shift
        rad = self.radius(part)
        if mid > rad:
            return 1
        if mid < -rad:
            return -1
        if rad == 0:
            return 0
        what = f"{part}{self}" + (f" - {shift}" if shift else "")
        raise UndecidableComparison(
            f"sign of {what} undecidable: enclosure radius {to_double(rad):.3e}, "
            "set by the decimal precision of the basis literals, contains zero"
        )

    def re_sign(self) -> int:
        return self._sign("re")

    def im_sign(self) -> int:
        return self._sign("im")

    def re_below(self, bound) -> bool:
        """Certified test Re(self) < bound for a rational (or +-inf) bound; a
        finite float is read at its repr (2.1 is 21/10)."""
        if isinstance(bound, float) and isinf(bound):
            return bound > 0
        return self._sign("re", decimal_rational(bound)) < 0

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"

    def serialize(self) -> list[str]:
        """The coordinates as "p/q" literals, formatted from the ints."""
        return [_rational_literal(a, self.den) for a in self.nums]


_ENTRY_SETTERS = slot_setters(BasisEntry)
_BASIS_SETTERS = slot_setters(ExponentBasis)
_set_basis, _set_den, _set_nums, _set_hash, _set_parts, _set_key = slot_setters(
    Exponent, "basis", "den", "nums", "_hash", "parts", "key")
# by slot name, for the lazy fields Exponent.__getattr__ keeps
_SETTERS = dict(zip(Exponent.__slots__, slot_setters(Exponent)))


def exp_compare(a: Exponent, b: Exponent) -> int:
    """Total order: -1, 0, +1 with real parts first, imaginary tie-break.

    Returns 0 exactly when the coordinate vectors agree.  Over an exact basis
    the exact keys decide.  Otherwise an enclosure of the difference that
    contains zero without coordinate equality raises UndecidableComparison,
    which signals basis literals too short to separate the values.  Distinct
    coordinates with provably equal values raise it too: the basis
    independence promise is broken.
    """
    if a.basis != b.basis:
        raise BasisMismatch("exp_compare: operands use different bases")
    if a.nums == b.nums and a.den == b.den:
        return 0
    if a.basis.exact:
        ka, kb = a.key, b.key
        s = (ka > kb) - (ka < kb)
    else:
        d = a - b
        s = d.re_sign() or d.im_sign()
    if s:
        return s
    raise UndecidableComparison(
        f"exp_compare: coordinates {a} and {b} differ but the "
        "values are provably equal; the basis independence promise is broken"
    )


# the sort key over an approximate basis
_certified_key = cmp_to_key(exp_compare)


def re_compare(a: Exponent, b: Exponent) -> int:
    """Certified sign of Re(a - b); 0 only when exactly equal."""
    if a.basis != b.basis:
        raise BasisMismatch("re_compare: operands use different bases")
    return (a - b).re_sign()
