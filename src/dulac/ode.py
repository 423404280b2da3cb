"""Polynomial/truncated-Taylor data for equations F(x, y, delta y, ..., delta^n y) = 0.

F is stored as a finite sum of monomials coeff * x^p * y_0^{q_0} ... y_n^{q_n},
where y_j stands for the j-th Euler derivative delta^j y.  When declared_degree
is set, the monomial data is a truncated Taylor expansion that is only trusted
up to that total degree; substitution then caps the result cutoff at
(declared_degree + 1) * min(1, val phi), the largest exponent range the
truncated data can certify.

Substitution has one code path, Evaluation: it keeps F(x, phi, ...) together
with the products of the delta^j phi it needs, and updates them when phi
gains a term.  ODESpec.substitute feeds it phi's terms; extend feeds it each
solved term, so no step substitutes from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import product
from math import comb, prod
from operator import mul

from .errors import NonpositiveValuation, SchemaError
from .exponents import Exponent
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

    def substitute(self, phi: DulacSeries, bound=INF) -> DulacSeries:
        """Evaluate F(x, phi, delta phi, ..., delta^n phi), truncated at bound.

        phi's terms are fed to an Evaluation, whose value() takes the cutoff
        that phi's own cutoff allows (see there).
        """
        return Evaluation(self, phi).value(phi.cutoff, bound)

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
            n = _json_int(data["n"], "n")
            degree = data.get("degree")
            if degree is not None:
                _json_int(degree, "degree")
            terms = []
            for i, item in enumerate(data["terms"]):
                try:
                    coeff = ExactScalar.parse(item["coeff"])
                except ValueError as exc:
                    raise SchemaError(f"ode: terms[{i}].coeff ({exc})") from exc
                p = _json_int(item["x"], f"terms[{i}].x")
                q = tuple(_json_int(v, f"terms[{i}].y[{j}]") for j, v in enumerate(item["y"]))
                terms.append((coeff, p, q))
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"ode: malformed equation data ({exc})") from exc
        try:
            return ODESpec(n, tuple(terms), degree)
        except ValueError as exc:
            raise SchemaError(f"ode: {exc}") from exc

    def y_degree_bounds(self) -> tuple:
        """Componentwise maxima of the y-exponent vectors over all monomials."""
        bounds = [0] * (self.n + 1)
        for _, _, q in self.terms:
            for j, e in enumerate(q):
                bounds[j] = max(bounds[j], e)
        return tuple(bounds)


def _json_int(value, field: str) -> int:
    """An integer field of the JSON equation data; bool, float and str are
    rejected, never rounded or converted."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"ode: {field} must be an integer, got {value!r}")
    return value


def multi_indices(bounds: tuple):
    """Every q with 0 <= q_j <= bounds_j, in lexicographic order."""
    return product(*(range(b + 1) for b in bounds))


def _accumulate(acc: dict, e: Exponent, c: TPoly) -> None:
    """acc[e] += c over terms keyed by exponent coordinates; zeros are dropped."""
    old = acc.get(e.coords)
    if old is None:
        acc[e.coords] = (e, c)
        return
    total = old[1] + c
    if total.is_zero():
        del acc[e.coords]
    else:
        acc[e.coords] = (old[0], total)


class Evaluation:
    """F(x, phi, delta phi, ..., delta^n phi) for a phi that grows term by term.

    For every q in the down-closure of F's y-exponent vectors it keeps the
    product Y[q] = prod_j (delta^j phi)^{q_j}, and with them the value
    residual = sum of coeff x^p Y[q] over the monomials of F.  Adding a term
    m = c x^lambda to phi updates them by the binomial rule

        Y[q] += sum over 0 != r <= q of C(q, r) Y[q - r] prod_j (delta^j m)^{r_j}

    with the old Y on the right, where delta^j m = ((lambda + d/dt)^j c) x^lambda
    is a monomial.  A step thus costs one product per term of each Y, not a
    new substitution: online multiplication in its plain quadratic form (van
    der Hoeven, "Relax, but don't be too lazy", J. Symbolic Comput. 34, 2002).
    Exact arithmetic makes the result independent of the order of the terms.
    """

    def __init__(self, F: ODESpec, phi: DulacSeries):
        if phi.terms and phi.terms[0][0].re_sign() <= 0:
            raise NonpositiveValuation(
                f"substitute: phi must have positive valuation, leading exponent "
                f"{phi.terms[0][0]} does not"
            )
        basis = phi.basis
        self.F = F
        self.phi = DulacSeries.zero(basis)
        self._x = {p: basis.rational(p) for _, p, _ in F.terms}
        self._degrees = F.y_degree_bounds()
        closure = {r for _, _, q in F.terms for r in multi_indices(q)}
        zero = (0,) * (F.n + 1)
        one = basis.zero()
        self._Y = {q: {} for q in closure}
        self._Y[zero] = {one.coords: (one, TPoly.ONE)}
        # highest total degree first, so that Y[q - r] still holds the old
        # value when Y[q] is updated
        self._updates = [
            (q, [(r, tuple(a - b for a, b in zip(q, r)), prod(map(comb, q, r)))
                 for r in multi_indices(q) if any(r)])
            for q in sorted(closure - {zero}, key=sum, reverse=True)
        ]
        pure = tuple((self._x[p], TPoly.const(coeff)) for coeff, p, q in F.terms if not any(q))
        self.residual = DulacSeries(basis, pure, INF)
        for e, c in phi.terms:
            self.add(e, c)

    def add(self, lam: Exponent, c: TPoly) -> None:
        """Add the term c x^lam to phi and update every product and the value."""
        lam_v = lam.value()
        powers = []  # powers[j][k] = ((lam + d/dt)^j c)^k
        for j, top in enumerate(self._degrees):
            d = d.shift_apply(lam_v) if j else c
            row = [TPoly.ONE, d]
            while len(row) <= top:
                row.append(row[-1] * d)
            powers.append(row)
        monomials = {}  # r -> prod_j (delta^j m)^{r_j}, as (exponent, coefficient)
        changes = {}
        for q, steps in self._updates:
            acc = {}
            for r, rest, weight in steps:
                if r not in monomials:
                    coeff = reduce(mul, (powers[j][k] for j, k in enumerate(r) if k))
                    monomials[r] = (lam * sum(r), coeff)
                e_r, c_r = monomials[r]
                if weight != 1:
                    c_r = c_r * weight
                for e, y in self._Y[rest].values():
                    _accumulate(acc, e + e_r, y * c_r)
            target = self._Y[q]
            for e, y in acc.values():
                _accumulate(target, e, y)
            changes[q] = acc
        new = []
        for coeff, p, q in self.F.terms:
            if any(q):
                x_p = self._x[p]
                new.extend((e + x_p if p else e, y * coeff) for e, y in changes[q].values())
        self.residual = DulacSeries(self.residual.basis, self.residual.terms + tuple(new), INF)
        self.phi = self.phi + DulacSeries.monomial(lam, c)

    def value(self, phi_cutoff=INF, bound=INF) -> DulacSeries:
        """The value for a phi known only below phi_cutoff, truncated at bound.

        A finite phi_cutoff caps the result at the least of
        phi_cutoff + (|q| - 1) val phi + p over the monomials x^p y^q with
        q != 0 (phi_cutoff itself when phi = 0), the cutoff that multiplying
        out the truncated factors would claim; truncated data cap it at
        (declared_degree + 1) * min(1, val phi).  val phi is the lower
        endpoint of the leading real part, so the caps hold over an
        approximate basis too.
        """
        low = self.phi.terms[0][0].re_low if self.phi.terms else INF
        cutoff = bound
        if phi_cutoff != INF:
            for _, p, q in self.F.terms:
                if any(q):
                    claim = phi_cutoff + (sum(q) - 1) * low + p if self.phi.terms else phi_cutoff
                    cutoff = min(cutoff, claim)
        if self.F.declared_degree is not None:
            cutoff = min(cutoff, (self.F.declared_degree + 1) * min(Fraction(1), low))
        return self.residual.truncate(cutoff)
