"""Formal Dulac series: finite sums of c(t) * x^lambda below an exactness cutoff.

A series value is a sorted list of terms (lambda, c) with complex exponents
lambda (exact coordinate vectors over a shared basis) and nonzero polynomial
coefficients c in t = log x, together with a cutoff: the series is exactly
known for all exponents with Re lambda < cutoff and unknown beyond.  Ring
operations propagate cutoffs so that no claimed term is ever contaminated by
unknown tail data:

* sum: cutoff = min of the operand cutoffs;
* product: cutoff = min(cutoff_f + low g, cutoff_g + low f), where the low
  value of a factor (low()) bounds Re of every term it may have: the
  certified lower endpoint re_low of its leading exponent, or its cutoff
  when no term is known, since a term may sit at the cutoff.  Shift by x^e
  moves the cutoff by re_low of e.  Lower endpoints keep a cutoff from
  over-claiming over an approximate basis too;
* the Euler derivation delta = x d/dx maps c(t) x^l to (l c + c') x^l and
  keeps the cutoff.

Terms at or beyond the cutoff are dropped on construction; truncation can
only lower a cutoff, never raise it.

Terms are ordered by the exponents' sort keys (see exponents): exact
rational (Re, Im) pairs over an exact basis, certified interval comparisons
over an approximate one.
"""

from __future__ import annotations

from fractions import Fraction
from math import isfinite

from .errors import BasisMismatch, CutoffIncrease, SchemaError, UndecidableComparison
from .exponents import Exponent, ExponentBasis
from .scalars import ExactScalar, Value, decimal_rational, parse_rational, slot_setters, to_double
from .tpoly import TPoly

INF = float("inf")


def _as_cutoff(c):
    return INF if isinstance(c, float) and c == INF else decimal_rational(c)


def cutoff_plus(c, x):
    """c + x for cutoffs and low values, an inf one staying inf however
    large the other is (a Fraction added to a float is converted to one,
    which overflows past the double range)."""
    return INF if c == INF or x == INF else c + x


def cutoff_to_json(c):
    """JSON form of a cutoff: null for +inf; a float when it is exactly c and
    reads back as c (integers, halves, ...); else, a cutoff past the double
    range included, the exact string "p/q", so that no round trip claims a
    larger cutoff than holds."""
    if c == INF:
        return None
    f = to_double(c)
    if isfinite(f) and Fraction(f) == c == Fraction(repr(f)):
        return f
    return f"{c.numerator}/{c.denominator}"


def serialize_s(s) -> str:
    """JSON form of a growth order: "inf" or the exact "p/q"."""
    return "inf" if s == INF else str(Fraction(s))


def cutoff_from_json(value, what: str):
    """Inverse of cutoff_to_json; a number is read as its decimal literal.
    SchemaError for anything else, a malformed "p/q" string included."""
    if value is None:
        return INF
    if isinstance(value, str):
        try:
            return parse_rational(value)
        except ValueError:
            pass
    elif isinstance(value, (int, float)) and not isinstance(value, bool) and isfinite(value):
        return _as_cutoff(value)
    raise SchemaError(f"{what}: cutoff must be null, a number or a \"p/q\" string, got {value!r}")


def terms_from_json(items, basis: ExponentBasis, where: str) -> tuple:
    """(Exponent, TPoly) terms from a JSON list of {exp, poly} objects; any
    other shape is a SchemaError naming where and the offending index."""
    if not isinstance(items, list):
        raise SchemaError(f"{where} must be a list of {{exp, poly}} objects")
    terms = []
    for i, item in enumerate(items):
        if not isinstance(item, dict) or set(item) != {"exp", "poly"}:
            raise SchemaError(f"{where}[{i}] must have exactly the keys exp and poly")
        field = "exp"
        try:
            e = basis.parse_exponent(item["exp"])
            field = "poly"
            terms.append((e, TPoly.parse(item["poly"])))
        except (ValueError, TypeError) as exc:
            raise SchemaError(f"{where}[{i}].{field} ({exc})") from exc
    return tuple(terms)


def _canonical(terms, cutoff):
    """Sort, merge duplicate exponents, drop zeros and out-of-cutoff terms.

    Distinct exponents with equal keys are provably equal values, which
    breaks the basis independence promise and raises UndecidableComparison.
    Neighbours are told apart by their keys, and their coordinates are
    compared only when the keys are equal.
    """
    items = sorted(terms, key=lambda t: t[0].key)
    out = []
    for e, c in items:
        if not out or out[-1][0].key != e.key:
            out.append((e, c))
        elif out[-1][0] == e:
            out[-1] = (e, out[-1][1] + c)
        else:
            raise UndecidableComparison(
                f"DulacSeries: exponents {out[-1][0]} and {e} differ but their "
                "values are provably equal; the basis independence promise is broken"
            )
    return tuple(
        (e, c) for e, c in out if not c.is_zero() and e.re_below(cutoff)
    )


class DulacSeries(Value):
    """The terms (Exponent, TPoly) over a basis, canonical below the cutoff
    (a Fraction or +inf); immutable."""

    __slots__ = _fields = ("basis", "terms", "cutoff")

    def __init__(self, basis: ExponentBasis, terms: tuple, cutoff):
        cutoff = _as_cutoff(cutoff)
        _set_basis(self, basis)
        _set_terms(self, _canonical(terms, cutoff))
        _set_cutoff(self, cutoff)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(basis: ExponentBasis, cutoff=INF) -> "DulacSeries":
        return DulacSeries(basis, (), cutoff)

    @staticmethod
    def monomial(exponent: Exponent, coeff: TPoly, cutoff=INF) -> "DulacSeries":
        return DulacSeries(exponent.basis, ((exponent, coeff),), cutoff)

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def leading(self):
        if not self.terms:
            return None
        return self.terms[0]

    def val(self):
        """Re of the least exponent; +inf for the zero series.

        For approximate bases this is the enclosure midpoint, which is exact
        whenever every participating basis entry is exact.
        """
        if not self.terms:
            return INF
        return self.terms[0][0].re_mid

    def low(self):
        """A certified lower bound on Re of every term, known or not: re_low
        of the least exponent, or the cutoff when no term is known.  The
        order of the terms is certified, so the least exponent has the least
        re_low."""
        return self.terms[0][0].re_low if self.terms else self.cutoff

    def _check(self, other: "DulacSeries") -> None:
        if self.basis != other.basis:
            raise BasisMismatch("series arithmetic: operands use different bases")

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "DulacSeries") -> "DulacSeries":
        self._check(other)
        return DulacSeries(self.basis, self.terms + other.terms, min(self.cutoff, other.cutoff))

    def __sub__(self, other: "DulacSeries") -> "DulacSeries":
        return self + (-other)

    def __neg__(self) -> "DulacSeries":
        return DulacSeries(self.basis, tuple((e, -c) for e, c in self.terms), self.cutoff)

    def __mul__(self, other) -> "DulacSeries":
        if isinstance(other, (TPoly, ExactScalar, int, Fraction)):
            return DulacSeries(self.basis, tuple((e, c * other) for e, c in self.terms), self.cutoff)
        self._check(other)
        cutoff = min(cutoff_plus(self.cutoff, other.low()), cutoff_plus(other.cutoff, self.low()))
        prods = tuple((e1 + e2, c1 * c2) for e1, c1 in self.terms for e2, c2 in other.terms)
        return DulacSeries(self.basis, prods, cutoff)

    __rmul__ = __mul__

    def delta(self) -> "DulacSeries":
        """Euler derivation x d/dx, acting termwise as (lambda + d/dt)."""
        return DulacSeries(self.basis, tuple((e, c.shift_apply(e)) for e, c in self.terms), self.cutoff)

    def shift(self, exponent: Exponent) -> "DulacSeries":
        """Multiply by x^exponent: shifts every term and the cutoff."""
        return DulacSeries(
            self.basis, tuple((e + exponent, c) for e, c in self.terms), cutoff_plus(self.cutoff, exponent.re_low)
        )

    def truncate(self, new_cutoff) -> "DulacSeries":
        new_cutoff = _as_cutoff(new_cutoff)
        if new_cutoff is self.cutoff:
            return self
        if new_cutoff > self.cutoff:
            raise CutoffIncrease(
                f"truncate: cannot raise cutoff from {self.cutoff} to {new_cutoff}; "
                "terms beyond the original cutoff were never computed"
            )
        kept = tuple(t for t in self.terms if t[0].re_below(new_cutoff))
        return DulacSeries(self.basis, kept, new_cutoff)

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "cutoff": cutoff_to_json(self.cutoff),
            "terms": [
                {"exp": e.serialize(), "poly": c.serialize()} for e, c in self.terms
            ],
        }

    @staticmethod
    def from_json(data: dict, basis: ExponentBasis) -> "DulacSeries":
        if not isinstance(data, dict):
            raise SchemaError(f"series: expected a JSON object, got {data!r}")
        cutoff = cutoff_from_json(data.get("cutoff"), "series")
        return DulacSeries(basis, terms_from_json(data.get("terms", []), basis, "series: terms"), cutoff)

    def __str__(self) -> str:
        if not self.terms:
            return f"0 (cutoff {self.cutoff})"
        parts = [f"[{c}]*x^{e}" for e, c in self.terms]
        return " + ".join(parts) + f"  (cutoff {self.cutoff})"


_set_basis, _set_terms, _set_cutoff = slot_setters(DulacSeries)
