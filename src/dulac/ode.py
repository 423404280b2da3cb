"""Polynomial/truncated-Taylor data for equations F(x, y, delta y, ..., delta^n y) = 0.

F is stored as a finite sum of monomials coeff * x^p * y_0^{q_0} ... y_n^{q_n},
where y_j stands for the j-th Euler derivative delta^j y.  When declared_degree
is set, the monomial data is a truncated Taylor expansion that is only trusted
up to that total degree; substitution then caps the result cutoff at
(declared_degree + 1) * min(1, low), the largest exponent range the
truncated data can certify, where the low value of phi is re_low of its
leading exponent, or its cutoff when no term is known.

Substitution has one code path, Evaluation: it keeps F(x, phi, ...) together
with the products of the delta^j phi it needs, all as term maps, and updates
them when phi gains a term.  extend feeds it each solved term, reads each
step's lowest residual term off it and takes the derivatives of F along phi
from its products, so no step substitutes from scratch or builds a series.
The evaluator's update steps are the one table of the binomial-weighted
monomials of F: they decide which products are kept and give every scaled
derivative (1/q!) d^q F; ODESpec holds only the validated data.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from heapq import heappop, heappush
from itertools import compress, product
from math import comb, prod
from operator import add, mul, sub

from .errors import NonpositiveValuation, SchemaError, UndecidableComparison
from .exponents import Exponent
from .scalars import ExactScalar, Value, slot_setters
from .series import INF, DulacSeries
from .tpoly import TPoly, _scalar_parts

# Evaluation builds one update step per pair 0 != r <= s for each s in the
# down-closure of F's y-exponent vectors.  The pairs r <= s <= q summed over
# the monomials x^p y^q bound that count, and ODESpec admits at most this
# many: a set-up of 500,000 steps takes seconds
MAX_UPDATE_STEPS = 10000


class ODESpec(Value):
    """Monomial data of F in the variables x, y_0, ..., y_n: terms is a tuple
    of at least one (ExactScalar coeff, int p, tuple q) with len(q) == n+1;
    immutable.  The monomials may call for at most MAX_UPDATE_STEPS update
    steps of an Evaluation."""

    __slots__ = ("n", "terms", "declared_degree")
    _fields = ("n", "terms", "declared_degree")

    def __init__(self, n: int, terms: tuple, declared_degree: int | None = None):
        if n < 1:
            raise ValueError(f"ODESpec: order n must be at least 1, got {n}")
        if not terms:
            # F = 0 is not an equation; every term also bounds n by its length
            raise ValueError("ODESpec: the equation has no terms")
        seen = set()
        for coeff, p, q in terms:
            if len(q) != n + 1:
                raise ValueError(
                    f"ODESpec: monomial exponent vector {q} must have length n+1 = {n + 1}"
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
            if declared_degree is not None and p + sum(q) > declared_degree:
                raise ValueError(
                    f"ODESpec: monomial (x^{p}, y^{q}) exceeds declared degree "
                    f"{declared_degree}"
                )
        # the pairs r <= s <= q, counted without enumerating them
        steps = sum(prod((e + 1) * (e + 2) // 2 for e in q) for _, _, q in terms)
        if steps > MAX_UPDATE_STEPS:
            raise ValueError(
                f"ODESpec: the y-exponents of the monomials call for up to {steps} "
                f"update steps of the substitution, above the limit {MAX_UPDATE_STEPS}"
            )
        _set_n(self, n)
        _set_terms(self, terms)
        _set_declared_degree(self, declared_degree)

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
        return tuple(map(max, (0,) * (self.n + 1), *(q for _, _, q in self.terms)))

    def y_closure(self) -> list:
        """The down-closure of the y-exponent vectors, every r <= q for the q
        of some monomial, in lexicographic order: the zero vector first."""
        return sorted({r for _, _, q in self.terms for r in multi_indices(q)})


_set_n, _set_terms, _set_declared_degree = slot_setters(ODESpec)


def _json_int(value, field: str) -> int:
    """An integer field of the JSON equation data; bool, float and str are
    rejected, never rounded or converted."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"ode: {field} must be an integer, got {value!r}")
    return value


def _support(q: tuple) -> list:
    """The (index, entry) pairs of the nonzero entries of an exponent vector;
    the zero entries are skipped in C."""
    return [(j, q[j]) for j in compress(range(len(q)), q)]


def multi_indices(bounds: tuple):
    """Every q with 0 <= q_j <= bounds_j, in lexicographic order; only the
    entries with a nonzero bound are stepped through."""
    support = _support(bounds)
    q = [0] * len(bounds)
    for values in product(*[range(b + 1) for _, b in support]):
        for (j, _), v in zip(support, values):
            q[j] = v
        yield tuple(q)


def _constant(coeff: ExactScalar, weight: int) -> TPoly:
    """weight * coeff as a constant TPoly, formed from its int fields."""
    d, a, b = _scalar_parts(coeff)
    return TPoly.from_ints(d, (weight * a,), (weight * b,))


def _accumulate(acc: dict, e: Exponent, c: TPoly) -> None:
    """acc[e] += c in a term map from exponents to coefficients; zeros are
    dropped."""
    old = acc.get(e)
    if old is None:
        acc[e] = c
        return
    total = old + c
    if total.is_zero():
        del acc[e]
    else:
        acc[e] = total


class Evaluation:
    """F(x, phi, delta phi, ..., delta^n phi) for a phi that grows term by term.

    It keeps the value F(phi) = sum of coeff x^p Y[q] over the monomials of
    F, where Y[q] = prod_j (delta^j phi)^{q_j}.  Adding a term m = c x^lambda
    to phi changes each Y[q] by the binomial rule

        Y[q] += sum over 0 != r <= q of C(q, r) Y[q - r] prod_j (delta^j m)^{r_j}

    with the old Y on the right, where delta^j m = ((lambda + d/dt)^j c) x^lambda
    is a monomial.  Each pair (q, r) is one update step, built once at set-up
    with C(q, r) coeff x^p for the monomials of F at q, the weighted
    coefficient folded into a constant TPoly.  Y[q] itself is kept
    only for the q that a step reads as its rest q - r: the elements strictly
    below another element of the down-closure of F's y-exponent vectors,
    which are also the q that a derivative reads; each product of the rule,
    times coeff x^p, goes straight into the value.  A step thus costs, for
    each r != q, one product per term of Y[q - r] and per kept Y[q] or
    monomial of F at q, and none for r = q, where Y[0] = 1; not a new
    substitution: online multiplication in its plain quadratic form (van der
    Hoeven, "Relax, but don't be too lazy", J. Symbolic Comput. 34, 2002).
    Exact arithmetic makes the result independent of the order of the terms.

    Each Y[q] and the value are term maps from exponents to coefficients, so
    a step builds no series.  The evaluator keeps one Exponent per exponent
    value it meets, in a table keyed by the int fields (den, nums): the sum
    of two exponents, and the difference that gives a solver step its new
    exponent (difference()), is formed from their fields and looked up
    there, and a new Exponent is built only for a value not met before
    (hash-consing, Filliatre and Conchon, "Type-safe modular hash-consing",
    ML 2006).  So the term maps and the heap hold those objects, a lookup
    matches by identity, and each value's sort key is computed once.  The
    table lives as long as the evaluator.  A heap of (key, nums, den,
    exponent), pushed whenever an exponent enters the value, gives leading()
    the value's lowest term; terms lists phi's terms fed so far, in
    increasing order.
    The derivatives dF/dy_j along phi and the scaled mixed ones
    (derivative()) are read off the kept products through the steps with
    r = order, which carry their weighted monomials; value() and derivative()
    build one DulacSeries when asked.  The evaluator keeps phi's cutoff:
    phi is known only below it, and every read claims its cutoff from it by
    the product rule of series (_cutoff).
    """

    def __init__(self, F: ODESpec, phi: DulacSeries):
        if phi.terms and phi.terms[0][0].re_sign() <= 0:
            raise NonpositiveValuation(
                f"Evaluation: phi must have positive valuation, leading exponent "
                f"{phi.terms[0][0]} does not"
            )
        basis = phi.basis
        self.F = F
        self.basis = basis
        self.terms = []  # phi's terms (exponent, coefficient) in the order fed
        self.cutoff = phi.cutoff  # phi is known only below it
        self._exponents = {}  # (den, nums) -> the one Exponent of that value
        self._degrees = F.y_degree_bounds()
        x = {p: self._find(basis.rational(p)) for _, p, _ in F.terms}
        at = {}  # the monomials of F grouped by y-vector: (coeff, x^p, p)
        for coeff, p, q in F.terms:
            at.setdefault(q, []).append((coeff, x[p], p))
        self._pairs = [(p, sum(q)) for _, p, q in F.terms]
        # highest total degree first, so that Y[q - r] still holds the old
        # value when Y[q] is updated; a step (r, q - r, C(q, r), folded)
        # carries (C(q, r) coeff, x^p, p) for each monomial of F at q, whose
        # products go straight into the value, and the steps with monomials
        # give derivative(r) as the sum of C(q, r) coeff x^p Y[q - r].  Y[q]
        # is kept exactly for the q that some step reads as its rest, the
        # elements of the closure strictly below another; those steps belong
        # to a larger q, so they are built before q's own
        closure = F.y_closure()
        self._Y = {}
        self._updates = []
        self._derivatives = {}  # r -> [(q - r, folded)]
        for q in sorted(closure[1:], key=sum, reverse=True):
            at_q = at.get(q, ())
            steps = []
            for r in multi_indices(q):
                if any(r):
                    weight = prod(map(comb, q, r))
                    folded = [(_constant(coeff, weight), x_p, p) for coeff, x_p, p in at_q]
                    rest = tuple(map(sub, q, r))
                    steps.append((r, rest, weight, folded))
                    self._Y.setdefault(rest, {})
                    if folded:
                        self._derivatives.setdefault(r, []).append((rest, folded))
            self._updates.append((self._Y.get(q), steps))
        self._Y[closure[0]] = {self._find(basis.zero()): TPoly.ONE}
        self._value = {}
        self._heap = []
        for coeff, x_p, _ in at.get(closure[0], ()):
            self._add_value(x_p, _constant(coeff, 1))
        for e, c in phi.terms:
            self.add(e, c)

    def _find(self, e: Exponent) -> Exponent:
        """The table's Exponent of e's value, e itself when it is new."""
        return self._exponents.setdefault((e.den, e.nums), e)

    def _sum(self, a: Exponent, b: Exponent, op=add) -> Exponent:
        """The table's Exponent of the value a + b, or a - b for op = sub;
        with both denominators 1 it is formed from the numerators and nothing
        else is built."""
        if a.den == 1 == b.den:
            key = (1, tuple(map(op, a.nums, b.nums)))
            e = self._exponents.get(key)
            if e is None:
                e = self._exponents[key] = Exponent._raw(self.basis, 1, key[1])
            return e
        return self._find(op(a, b))

    def difference(self, a: Exponent, b: Exponent) -> Exponent:
        """The table's Exponent of the value a - b, formed as _sum forms sums."""
        return self._sum(a, b, sub)

    def _add_value(self, e: Exponent, c: TPoly) -> None:
        if e not in self._value:
            heappush(self._heap, (e.key, e.nums, e.den, e))
        _accumulate(self._value, e, c)

    def add(self, lam: Exponent, c: TPoly) -> None:
        """Add the term c x^lam to phi and update every product and the value;
        lam must exceed every exponent added before."""
        lam.exact_parts()  # an approximate value is refused before any product
        lam = self._find(lam)
        powers = []  # powers[j][k] = ((lam + d/dt)^j c)^k
        for j, top in enumerate(self._degrees):
            d = d.shift_apply(lam) if j else c
            row = [TPoly.ONE, d]
            while len(row) <= top:
                row.append(row[-1] * d)
            powers.append(row)
        value, heap, plus = self._value, self._heap, self._sum
        monomials = {}  # r -> prod_j (delta^j m)^{r_j}, as (exponent, coefficient)
        for target, steps in self._updates:
            for r, rest, weight, folded in steps:
                if r not in monomials:
                    coeff = reduce(mul, (powers[j][k] for j, k in _support(r)))
                    monomials[r] = (self._find(lam * sum(r)), coeff)
                e_r, c_r = monomials[r]
                to_value = [(plus(e_r, x_p), c_r * f) for f, x_p, _ in folded]
                if target is not None and weight != 1:
                    c_r = c_r * weight
                if not any(rest):
                    # r = q: Y[0] = 1, so m^q itself enters with no product
                    for e_v, c_v in to_value:
                        self._add_value(e_v, c_v)
                    if target is not None:
                        _accumulate(target, e_r, c_r)
                    continue
                for e, y in self._Y[rest].items():
                    for e_v, c_v in to_value:
                        # value[s] += y c_v, with s pushed when it enters
                        s, t = plus(e, e_v), y * c_v
                        old = value.get(s)
                        if old is None:
                            value[s] = t
                            heappush(heap, (s.key, s.nums, s.den, s))
                        else:
                            t = old + t
                            if t:
                                value[s] = t
                            else:
                                del value[s]
                    if target is not None:
                        _accumulate(target, plus(e, e_r), y * c_r)
        self.terms.append((lam, c))

    def _cutoff(self, pairs, degree, bound):
        """Cutoff of G(x, phi, ...) for G = F or a derivative of it, truncated
        at bound, for the phi of the set-up, known only below its cutoff
        (self.cutoff); pairs lists (p, |q|) for G's monomials x^p y^q and
        degree is G's declared degree.  add() leaves that cutoff as it is:
        a term fed at or above it does not make phi known there.

        low, the low value of phi, bounds Re of every term phi may have: the
        lower endpoint re_low of its leading exponent, or phi's cutoff when no
        term is known, since a term may sit at the cutoff (the product rule
        of series).  A finite cutoff c of phi caps the cutoff at the least of
        c + (|q| - 1) low + p over the pairs with q != 0, the cutoff that
        multiplying out the truncated factors would claim; truncated data cap
        it at (degree + 1) * min(1, low), the least Re an omitted monomial of
        total degree above degree may give.  A nonpositive low, such as that
        of a phi with no known term and a finite cutoff <= 0, is refused, as
        a known term of nonpositive valuation is.
        """
        low = self.terms[0][0].re_low if self.terms else self.cutoff
        if low <= 0:
            raise NonpositiveValuation(
                f"Evaluation: phi must have positive valuation; at cutoff "
                f"{self.cutoff} a term of phi may have real part {low} <= 0"
            )
        cutoff = bound
        if self.cutoff != INF:
            for p, size in pairs:
                if size:
                    cutoff = min(cutoff, self.cutoff + (size - 1) * low + p)
        if degree is not None:
            cutoff = min(cutoff, (degree + 1) * min(Fraction(1), low))
        return cutoff

    def leading(self, bound=INF):
        """The lowest term (exponent, coefficient) of value(bound),
        or None when that value is zero; no series is built.

        Like a series, it raises UndecidableComparison when another term has
        the head's key but other coordinates: the basis is dependent.
        """
        cutoff = self._cutoff(self._pairs, self.F.declared_degree, bound)
        heap, value = self._heap, self._value
        while heap and heap[0][-1] not in value:
            heappop(heap)
        if not heap:
            return None
        key, e = heap[0][0], heap[0][-1]
        # every entry with the head's key hangs below it on a path of such keys
        ties = [1, 2]
        while ties:
            i = ties.pop()
            if i < len(heap) and heap[i][0] == key:
                if heap[i][-1] is not e and heap[i][-1] in value:
                    raise UndecidableComparison(
                        f"Evaluation: exponents {e} and {heap[i][-1]} differ but their "
                        "values are provably equal; the basis independence promise "
                        "is broken"
                    )
                ties += (2 * i + 1, 2 * i + 2)
        return (e, value[e]) if e.re_below(cutoff) else None

    def value(self, bound=INF) -> DulacSeries:
        """The value, truncated at bound and at the caps of _cutoff."""
        cutoff = self._cutoff(self._pairs, self.F.declared_degree, bound)
        return DulacSeries(self.basis, tuple(self._value.items()), cutoff)

    def derivative(self, order: tuple) -> DulacSeries:
        """The scaled derivative (1/order!) d^|order| F / dy^order along phi,
        for an order of n + 1 nonnegative ints: the sum of C(q, order) coeff
        x^p Y[q - order] over the update steps with r = order and their
        monomials of F at q, with the cutoff _cutoff gives those monomials of
        the derivative.  For order = e_j it is dF/dy_j = sum q_j coeff x^p
        Y[q - e_j]; order 0 gives F itself, whose value is kept: value()."""
        n = self.F.n
        if len(order) != n + 1 or not all(type(o) is int and o >= 0 for o in order):
            raise ValueError(f"derivative: order {order!r} is not n + 1 = {n + 1} nonnegative ints")
        if not any(order):
            return self.value()
        reads = self._derivatives.get(order, ())
        terms = tuple(
            (self._sum(e, x_p) if p else e, y * coeff)
            for rest, folded in reads
            for coeff, x_p, p in folded
            for e, y in self._Y[rest].items()
        )
        pairs = ((p, sum(rest)) for rest, folded in reads for _, _, p in folded)
        degree = None if self.F.declared_degree is None else max(self.F.declared_degree - sum(order), 0)
        return DulacSeries(self.basis, terms, self._cutoff(pairs, degree, INF))
