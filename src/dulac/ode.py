"""Polynomial/truncated-Taylor data for equations F(x, y, delta y, ..., delta^n y) = 0.

F is stored as a finite sum of monomials coeff * x^p * y_0^{q_0} ... y_n^{q_n},
where y_j stands for the j-th Euler derivative delta^j y.  When declared_degree
is set, the monomial data is a truncated Taylor expansion that is only trusted
up to that total degree; substitution then caps the result cutoff at
(declared_degree + 1) * min(1, val phi), the largest exponent range the
truncated data can certify.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import NonpositiveValuation, SchemaError
from .scalars import ExactScalar
from .series import INF, DulacSeries
from .tpoly import TPoly


@dataclass(frozen=True)
class ODESpec:
    """Monomial data of F in the variables x, y_0, ..., y_n."""

    n: int
    terms: tuple  # of (ExactScalar coeff, int p, tuple q) with len(q) == n+1
    declared_degree: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"ODESpec: order n must be at least 1, got {self.n}")
        seen = set()
        for coeff, p, q in self.terms:
            if len(q) != self.n + 1:
                raise ValueError(
                    f"ODESpec: monomial exponent vector {q} must have length n+1 = {self.n + 1}"
                )
            if p < 0 or any(e < 0 for e in q):
                raise ValueError(f"ODESpec: negative exponent in monomial (x^{p}, y^{q})")
            if p == 0 and not any(q):
                raise ValueError("ODESpec: constant monomial (p = 0, q = 0) is not allowed")
            if coeff.is_zero():
                raise ValueError(f"ODESpec: zero coefficient stored at (x^{p}, y^{q})")
            if (p, q) in seen:
                raise ValueError(f"ODESpec: duplicate monomial (x^{p}, y^{q})")
            seen.add((p, q))
            if self.declared_degree is not None and p + sum(q) > self.declared_degree:
                raise ValueError(
                    f"ODESpec: monomial (x^{p}, y^{q}) exceeds declared degree "
                    f"{self.declared_degree}"
                )

    # -- calculus on the monomial data ------------------------------------

    def partial(self, j: int) -> "ODESpec":
        """Derivative with respect to y_j; declared degree drops by one."""
        if not 0 <= j <= self.n:
            raise ValueError(f"partial: variable index {j} outside 0..{self.n}")
        out = []
        for coeff, p, q in self.terms:
            if q[j] == 0:
                continue
            q2 = q[:j] + (q[j] - 1,) + q[j + 1 :]
            out.append((coeff * q[j], p, q2))
        deg = None if self.declared_degree is None else max(self.declared_degree - 1, 0)
        return ODESpec.__new_unchecked(self.n, tuple(out), deg)

    def partial_multi(self, q_order: tuple) -> "ODESpec":
        """Scaled mixed derivative (1/q!) d^|q| F / dy^q via binomial weights."""
        if len(q_order) != self.n + 1:
            raise ValueError(f"partial_multi: order vector {q_order} has wrong length")
        out = []
        for coeff, p, q in self.terms:
            if any(qi < oi for qi, oi in zip(q, q_order)):
                continue
            w = 1
            for qi, oi in zip(q, q_order):
                w *= comb(qi, oi)
            q2 = tuple(qi - oi for qi, oi in zip(q, q_order))
            out.append((coeff * w, p, q2))
        deg = (
            None
            if self.declared_degree is None
            else max(self.declared_degree - sum(q_order), 0)
        )
        # derivatives may legitimately contain a constant monomial, so the
        # constructor validation is skipped here
        return ODESpec.__new_unchecked(self.n, tuple(out), deg)

    @staticmethod
    def __new_unchecked(n, terms, declared_degree):
        obj = object.__new__(ODESpec)
        object.__setattr__(obj, "n", n)
        object.__setattr__(obj, "terms", terms)
        object.__setattr__(obj, "declared_degree", declared_degree)
        return obj

    # -- substitution -------------------------------------------------------

    def _delta_powers(self, phi: DulacSeries) -> list:
        out = [phi]
        for _ in range(self.n):
            out.append(out[-1].delta())
        return out

    def _validate_phi(self, phi: DulacSeries) -> None:
        if phi.terms and phi.terms[0][0].re_sign() <= 0:
            raise NonpositiveValuation(
                f"substitute: phi must have positive valuation, leading exponent "
                f"{phi.terms[0][0]} does not"
            )

    def substitute(self, phi: DulacSeries, bound=INF) -> DulacSeries:
        """Evaluate F(x, phi, delta phi, ..., delta^n phi), truncated at bound.

        Monomials are grouped by total degree in (x, y) and the groups summed
        in ascending degree; for truncated data the result cutoff is capped at
        (declared_degree + 1) * min(1, val phi).  The result equals the full
        substitution truncated at the bound, and when phi is known up to the
        bound every product is truncated there too, so no term pair beyond it
        is built.
        """
        self._validate_phi(phi)
        basis = phi.basis
        # Truncating each product at the bound is exact only when phi is known
        # up to the bound: otherwise a factor emptied by the bound would make
        # the zero-product rule take phi's lower cutoff.
        limit = bound if phi.cutoff >= bound else INF
        deltas = self._delta_powers(phi)
        powers: dict = {}

        def power(j: int, e: int) -> DulacSeries:
            """Cached e-th power of delta^j phi, truncated at limit."""
            if (j, e) not in powers:
                powers[j, e] = deltas[j] if e == 1 else power(j, e - 1).mul_below(deltas[j], limit)
            return powers[j, e]

        groups: dict = {}
        for coeff, p, q in self.terms:
            groups.setdefault(p + sum(q), []).append((coeff, p, q))
        total = DulacSeries.zero(basis)
        for d in sorted(groups):
            part = DulacSeries.zero(basis)
            for coeff, p, q in groups[d]:
                value = DulacSeries.monomial(basis.rational(p), TPoly.const(coeff))
                for j, e in enumerate(q):
                    if e:
                        value = value.mul_below(power(j, e), limit)
                part = part + value
            total = total + part
        cap = INF
        if self.declared_degree is not None:
            cap = (self.declared_degree + 1) * min(Fraction(1), phi.val())
        return total.truncate(min(total.cutoff, bound, cap))

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "degree": self.declared_degree,
            "terms": [
                {"coeff": str(coeff), "x": p, "y": list(q)} for coeff, p, q in self.terms
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "ODESpec":
        try:
            n = data["n"]
            terms = tuple(
                (ExactScalar.parse(item["coeff"]), int(item["x"]), tuple(int(v) for v in item["y"]))
                for item in data["terms"]
            )
            degree = data.get("degree")
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"ode: malformed equation data ({exc})") from exc
        try:
            return ODESpec(n, terms, degree)
        except ValueError as exc:
            raise SchemaError(f"ode: {exc}") from exc

    def y_degree_bounds(self) -> tuple:
        """Componentwise maxima of the y-exponent vectors over all monomials."""
        bounds = [0] * (self.n + 1)
        for _, _, q in self.terms:
            for j, e in enumerate(q):
                bounds[j] = max(bounds[j], e)
        return tuple(bounds)
