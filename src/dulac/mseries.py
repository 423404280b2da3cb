"""Multivariate image of solution tails: the exact ring of the semigroup picture.

Writing every exponent gap as <m, r> over validated generators turns a tail
sum(C_m(t) x^{<m,r>}) into a series in kappa formal variables indexed by
m in Z^kappa_+ \\ {0}.  The Euler derivation transports to

    hat_delta: C_m  |->  (<m, r> + d/dt) C_m.

All arithmetic here is exact and loads no mpmath; the graded norms that
bound these series, and their estimate checks, are in dulac.norms.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from operator import add

from .errors import (
    BasisMismatch,
    CutoffIncrease,
    ExponentOutsideSemigroup,
    SchemaError,
)
from .exponents import Exponent, re_compare
from .scalars import Value, slot_setters
from .semigroup import Generators
from .series import DulacSeries, _as_cutoff, cutoff_from_json, cutoff_plus, cutoff_to_json
from .tpoly import TPoly


def _canonical_terms(items: dict, gens: Generators, cutoff) -> tuple:
    """The nonzero terms of {m: C_m} certified below the cutoff, in the
    certified order (Re<m,r>, m); UndecidableComparison when an enclosure of
    Re<m,r> contains the cutoff, or, over an approximate basis, when that
    of the difference of two terms' Re<m,r> contains zero without being
    {0} (re_compare)."""
    m_exponent = gens.m_exponent
    kept = [m for m in items if not items[m].is_zero() and m_exponent(m).re_below(cutoff)]
    if gens.basis.exact:
        kept.sort(key=lambda m: (m_exponent(m).re_mid, m))
    else:
        kept.sort(key=cmp_to_key(lambda a, b: re_compare(m_exponent(a), m_exponent(b)) or (a > b) - (a < b)))
    return tuple((m, items[m]) for m in kept)


def _multi_index(m, kappa: int, what: str, error=ValueError) -> tuple:
    """m as a tuple of kappa nonnegative ints; otherwise error, with what
    naming m.  An entry v with v != int(v), such as 1.5 or Fraction(5, 2),
    is refused, never truncated."""
    m = tuple(m)
    ints = tuple(int(v) for v in m)
    if len(ints) != kappa or min(ints, default=0) < 0 or ints != m:
        raise error(f"{what} {m} is not kappa = {kappa} nonnegative integers")
    return ints


class MSeries(Value):
    """Finite multivariate series sum C_m(t) X^m below a cutoff on Re<m,r>:
    the terms (m, C_m) over the generators gens, with base exponent
    lambda_base; immutable."""

    __slots__ = _fields = ("gens", "lambda_base", "terms", "cutoff")

    def __init__(self, gens: Generators, lambda_base: Exponent, terms: tuple, cutoff):
        cutoff = _as_cutoff(cutoff)
        items, kappa = {}, gens.kappa
        for m, c in terms:
            m = _multi_index(m, kappa, "MSeries: multi-index")
            if not any(m):
                raise ValueError("MSeries: the zero multi-index is not a semigroup member")
            items[m] = items[m] + c if m in items else c
        _set_gens(self, gens)
        _set_lambda_base(self, lambda_base)
        _set_terms(self, _canonical_terms(items, gens, cutoff))
        _set_cutoff(self, cutoff)

    @staticmethod
    def _trusted_over(gens: Generators, lambda_base: Exponent, terms: tuple, cutoff) -> "MSeries":
        """The series over gens and lambda_base with canonical terms (valid,
        nonzero, sorted, below the cutoff) and cutoff; nothing is checked."""
        out = object.__new__(MSeries)
        _set_gens(out, gens)
        _set_lambda_base(out, lambda_base)
        _set_terms(out, terms)
        _set_cutoff(out, cutoff)
        return out

    def _trusted(self, terms: tuple, cutoff) -> "MSeries":
        """This series' gens and lambda_base with canonical terms and cutoff."""
        return MSeries._trusted_over(self.gens, self.lambda_base, terms, cutoff)

    # -- helpers -------------------------------------------------------------

    def _check(self, other: "MSeries") -> None:
        if self.gens != other.gens or self.lambda_base != other.lambda_base:
            raise BasisMismatch("mseries arithmetic: operands differ in generators or base exponent")

    def is_zero(self) -> bool:
        return not self.terms

    def low(self):
        """A certified lower bound on Re<m,r> of every term, known or not:
        re_low of the first term, or the cutoff when no term is known.  re_low
        rises along the certified order, since rad(b) - rad(a) <= rad(b - a)."""
        return self.gens.m_exponent(self.terms[0][0]).re_low if self.terms else self.cutoff

    # -- ring operations -------------------------------------------------------

    def __add__(self, other: "MSeries") -> "MSeries":
        self._check(other)
        return MSeries(
            self.gens, self.lambda_base, self.terms + other.terms, min(self.cutoff, other.cutoff)
        )

    def __neg__(self) -> "MSeries":
        return self._trusted(tuple((m, -c) for m, c in self.terms), self.cutoff)

    def __sub__(self, other: "MSeries") -> "MSeries":
        return self + (-other)

    def __mul__(self, other: "MSeries") -> "MSeries":
        self._check(other)
        cutoff = min(cutoff_plus(self.cutoff, other.low()), cutoff_plus(other.cutoff, self.low()))
        items = {}  # sums of valid multi-indices are valid: no check
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m, c = tuple(map(add, m1, m2)), c1 * c2
                items[m] = items[m] + c if m in items else c
        return self._trusted(_canonical_terms(items, self.gens, cutoff), cutoff)

    def mul_poly(self, a: TPoly) -> "MSeries":
        # a nonzero product of nonzero polynomials keeps every term
        return self._trusted(tuple((m, c * a) for m, c in self.terms) if a else (), self.cutoff)

    def shift_m(self, l) -> "MSeries":
        """The product by X^l for a multi-index l of kappa nonnegative integers."""
        l = _multi_index(l, self.gens.kappa, "MSeries: shift index")
        # the cutoff moves by re_low of <l,r>; adding <l,r> keeps each index
        # valid and the order, but over an approximate basis not the cut
        m_exponent = self.gens.m_exponent
        cutoff = cutoff_plus(self.cutoff, m_exponent(l).re_low)
        shifted = ((tuple(map(add, m, l)), c) for m, c in self.terms)
        return self._trusted(tuple(t for t in shifted if m_exponent(t[0]).re_below(cutoff)), cutoff)

    def hat_delta(self) -> "MSeries":
        """Transported Euler derivation: C_m -> (<m,r> + d/dt) C_m."""
        out = tuple((m, c.shift_apply(self.gens.m_exponent(m))) for m, c in self.terms)
        return MSeries(self.gens, self.lambda_base, out, self.cutoff)

    def base_delta(self) -> "MSeries":
        """Reduced-equation operator (lambda_base + hat_delta)."""
        base = self.lambda_base
        base.exact_parts()  # an approximate base is refused before a sum could cancel it
        out = tuple((m, c.shift_apply(base + self.gens.m_exponent(m))) for m, c in self.terms)
        return MSeries(self.gens, self.lambda_base, out, self.cutoff)

    def truncate(self, new_cutoff) -> "MSeries":
        new_cutoff = _as_cutoff(new_cutoff)
        if new_cutoff > self.cutoff:
            raise CutoffIncrease(
                f"truncate: cannot raise cutoff from {self.cutoff} to {new_cutoff}"
            )
        return MSeries(self.gens, self.lambda_base, self.terms, new_cutoff)

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "gens": self.gens.serialize(),
            "lambda_base": self.lambda_base.serialize(),
            "cutoff": cutoff_to_json(self.cutoff),
            "terms": [{"m": list(m), "poly": c.serialize()} for m, c in self.terms],
        }

    @staticmethod
    def from_json(data: dict, gens: Generators, lambda_base: Exponent) -> "MSeries":
        """Inverse of to_json; SchemaError for a malformed document or term, a
        multi-index that is not kappa nonnegative JSON integers included."""
        if not isinstance(data, dict):
            raise SchemaError(f"mseries: expected a JSON object, got {data!r}")
        cutoff = cutoff_from_json(data.get("cutoff"), "mseries")
        items = data.get("terms", [])
        if not isinstance(items, list):
            raise SchemaError("mseries: terms must be a list of {m, poly} objects")
        terms = []
        for i, item in enumerate(items):
            m = item.get("m") if isinstance(item, dict) else None
            if not isinstance(m, list) or len(m) != gens.kappa or not all(type(v) is int and v >= 0 for v in m):
                raise SchemaError(f"mseries: terms[{i}].m must be {gens.kappa} nonnegative integers, got {m!r}")
            try:
                terms.append((tuple(m), TPoly.parse(item.get("poly"))))
            except (ValueError, TypeError) as exc:
                raise SchemaError(f"mseries: terms[{i}].poly ({exc})") from exc
        return MSeries(gens, lambda_base, tuple(terms), cutoff)


_set_gens, _set_lambda_base, _set_terms, _set_cutoff = slot_setters(MSeries)


# -- transport between the two pictures ---------------------------------------


def iota(f: DulacSeries, gens: Generators, lambda_base: Exponent | None = None) -> MSeries:
    """Rewrite a tail series over exponent coordinates <m, r>.

    Every exponent of f must decompose over the generators; the cutoff is
    the same real number in both pictures since Re<m,r> = Re lambda.
    """
    base = lambda_base if lambda_base is not None else gens.basis.zero()
    terms = []
    for lam, c in f.terms:
        m = gens.decomposition(lam)
        if m is None:
            raise ExponentOutsideSemigroup(
                f"iota: exponent {lam} does not decompose over the declared generators"
            )
        terms.append((m, c))
    return MSeries(gens, base, tuple(terms), f.cutoff)


def iota_inv(g: MSeries) -> DulacSeries:
    """Inverse transport; exact two-sided inverse of iota on its image."""
    terms = [(g.gens.m_exponent(m), c) for m, c in g.terms]
    return DulacSeries(g.gens.basis, tuple(terms), g.cutoff)


def fit_degree_K(g: MSeries) -> Fraction:
    """Smallest K with deg C_m <= K |m| over the stored terms."""
    return max((Fraction(c.degree, sum(m)) for m, c in g.terms if c.degree > 0), default=Fraction(0))
