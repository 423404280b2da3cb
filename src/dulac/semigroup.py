"""Finitely generated exponent semigroups and related exact linear algebra.

The exponents of a solved series, measured from a chosen base term, land in
the semigroup of nonnegative integer combinations of finitely many complex
generators r_1, ..., r_kappa that are independent over the integers and have
positive real parts.  Independence over Z is equivalent to independence over
Q of the rational coordinate vectors, so validation and membership reduce to
exact rational linear algebra over the declared basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import gcd, lcm

from .errors import BasisMismatch, DependentGenerators, NonpositiveRealPart, UndecidableComparison
from .exponents import Exponent, ExponentBasis


# -- exact rational linear algebra (small dense systems) -------------------


def _rref(rows: list) -> tuple:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def solve_unique(columns: list, rhs: list):
    """Solve M x = rhs where M is given by columns; None when inconsistent.

    Assumes the columns are linearly independent (unique solution if any).
    """
    ncols = len(columns)
    nrows = len(rhs)
    aug = [[columns[j][i] for j in range(ncols)] + [rhs[i]] for i in range(nrows)]
    rows, pivots = _rref(aug)
    if ncols in pivots:
        return None  # inconsistent: pivot in the augmented column
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = rows[r][ncols]
    # verify: guards against an underdetermined system slipping through
    for i in range(nrows):
        if sum(columns[j][i] * x[j] for j in range(ncols)) != rhs[i]:
            return None
    return x


def nullspace_vector(columns: list):
    """A nonzero rational x with sum_j x_j * columns[j] = 0, or None."""
    ncols = len(columns)
    nrows = len(columns[0]) if columns else 0
    mat = [[columns[j][i] for j in range(ncols)] for i in range(nrows)]
    rows, pivots = _rref(mat)
    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        return None
    f = free[0]
    x = [Fraction(0)] * ncols
    x[f] = Fraction(1)
    for r, c in enumerate(pivots):
        x[c] = -rows[r][f]
    return x


def _to_integer_vector(x: list) -> list:
    denom = lcm(*(v.denominator for v in x)) if x else 1
    ints = [int(v * denom) for v in x]
    g = gcd(*ints) or 1
    return [v // g for v in ints]


# -- generators -------------------------------------------------------------


@dataclass(frozen=True)
class Generators:
    """Validated semigroup generators over a shared exponent basis.

    Re <m, r> and Im <m, r> are computed once per multi-index m and kept,
    since norm tables and series sorts ask for the same m many times; so is
    the decomposition of each exponent, which the gaps and the iota image of
    a run both ask for.
    """

    basis: ExponentBasis
    r: tuple  # of Exponent
    _m_parts: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _decomposed: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def kappa(self) -> int:
        return len(self.r)

    def re_mids(self) -> list:
        return [g.re_mid for g in self.r]

    def m_exponent(self, m) -> Exponent:
        """The exponent <m, r> = sum m_i r_i."""
        acc = self.basis.zero()
        for mi, ri in zip(m, self.r):
            if mi:
                acc = acc + ri * mi
        return acc

    def m_parts(self, m) -> tuple:
        """(Re <m, r>, Im <m, r>) as Fractions (the midpoints over an
        approximate basis)."""
        m = tuple(m)
        parts = self._m_parts.get(m)
        if parts is None:
            parts = self._m_parts[m] = (
                sum((mi * ri.re_mid for mi, ri in zip(m, self.r)), Fraction(0)),
                sum((mi * ri.im_mid for mi, ri in zip(m, self.r)), Fraction(0)),
            )
        return parts

    def decomposition(self, lam: Exponent):
        """decompose(lam, self), solved once per exponent and kept."""
        if lam not in self._decomposed:
            self._decomposed[lam] = decompose(lam, self)
        return self._decomposed[lam]

    def m_re(self, m) -> Fraction:
        return self.m_parts(m)[0]

    def m_im(self, m) -> Fraction:
        return self.m_parts(m)[1]

    def serialize(self) -> list:
        return [g.serialize() for g in self.r]


def validate_generators(rs) -> Generators:
    """Check positivity of real parts and integer independence.

    Dependence is reported with an explicit integer relation witness m != 0
    such that sum m_j r_j = 0.
    """
    rs = tuple(rs)
    if not rs:
        raise ValueError("validate_generators: at least one generator is required")
    basis = rs[0].basis
    for g in rs:
        if g.basis != basis:
            raise ValueError("validate_generators: generators use different bases")
        if g.re_sign() <= 0:
            raise NonpositiveRealPart(
                f"validate_generators: generator {g} has nonpositive real part"
            )
    columns = [list(g.coords) for g in rs]
    null = nullspace_vector(columns)
    if null is not None:
        witness = _to_integer_vector(null)
        raise DependentGenerators(
            f"validate_generators: integer relation {witness} . r = 0 links the "
            "generators; they are not independent over the integers",
            witness=witness,
        )
    return Generators(basis=basis, r=rs)


def decompose(lam: Exponent, gens: Generators):
    """Nonnegative integer m with <m, r> = lam, or None when no member.

    Independence makes the decomposition unique when it exists, so failure
    is a definite non-membership answer for the declared generators, not an
    error.
    """
    if lam.basis != gens.basis:
        return None
    x = solve_unique([list(g.coords) for g in gens.r], list(lam.coords))
    if x is None:
        return None
    if not any(x) or any(v.denominator != 1 or v < 0 for v in x):
        return None
    return tuple(int(v) for v in x)


def minimal_shell(gens: Generators, tau_re: Fraction) -> list:
    """Minimal elements of {m in Z^kappa_+ \\ {0} : Re<m, r> > tau_re}.

    Minimality is with respect to the componentwise order.  The real parts
    of the generators are positive, so every minimal element lies in the box
    with sides floor(tau / Re r_j) + 1 and a finite scan suffices.
    """
    betas = gens.re_mids()
    tau_re = Fraction(tau_re)
    bounds = [max(int(tau_re / b) + 1, 1) for b in betas]
    members = [
        m
        for m in product(*(range(b + 1) for b in bounds))
        if any(m) and gens.m_re(m) > tau_re
    ]
    return [
        m for m in members
        if not any(k != m and all(ki <= mi for ki, mi in zip(k, m)) for k in members)
    ]


def compute_kcal(K_fit: Fraction, gens: Generators, tau_re) -> Fraction:
    """Degree-growth constant: 2 * K_fit * max |m| over the minimal shell."""
    shell = minimal_shell(gens, tau_re)
    if not shell:
        return Fraction(0)
    return 2 * Fraction(K_fit) * max(sum(m) for m in shell)


def choose_R(Kcal, gens: Generators) -> tuple:
    """Norm weight rule: theta_bound = 1/min Re r_j; R = max(2, 2 Kcal theta).

    The bound 1/min Re r_j is uniform in the base exponent lambda, since
    |lambda + <m,r>| >= Re lambda + |m| min Re r_j.

    The returned R keeps the derivative-term contraction below 1 whenever
    the coefficient degrees grow at most like Kcal * |m|.
    """
    beta = min(gens.re_mids())
    theta_bound = 1 / beta
    R = max(Fraction(2), 2 * Fraction(Kcal) * theta_bound)
    return theta_bound, R


def exponent_gaps(solution_terms, gens: Generators, m_index: int) -> list:
    """Decompose the gaps lambda_k - lambda_m over the generators.

    Returns one record per later term: (k, gap exponent, decomposition or
    None).  A None decomposition means the declared generators do not
    reproduce the solved exponent structure.
    """
    if not 1 <= m_index <= len(solution_terms):
        raise ValueError(
            f"exponent_gaps: base index {m_index} outside 1..{len(solution_terms)}"
        )
    lam_m = solution_terms[m_index - 1][0]
    out = []
    for k in range(m_index + 1, len(solution_terms) + 1):
        gap = solution_terms[k - 1][0] - lam_m
        out.append((k, gap, gens.decomposition(gap)))
    return out


# -- generator suggestion (heuristic) ---------------------------------------


def _hnf_rows(mat: list) -> list:
    """Row-style Hermite reduction of an integer matrix; returns a basis of
    the row lattice with nonnegative pivots."""
    mat = [list(r) for r in mat if any(r)]
    if not mat:
        return []
    cols = len(mat[0])
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(r + 1, len(mat)):
            while mat[i][c] != 0:
                q = mat[r][c] // mat[i][c]
                mat[r] = [a - q * b for a, b in zip(mat[r], mat[i])]
                mat[r], mat[i] = mat[i], mat[r]
        if mat[r][c] < 0:
            mat[r] = [-v for v in mat[r]]
        for i in range(r):
            q = mat[i][c] // mat[r][c]
            if q:
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
        r += 1
        if r == len(mat):
            break
    return [row for row in mat[:r] if any(row)]


def suggest_generators(F, prefix, basis: ExponentBasis) -> dict:
    """Heuristic generator candidates from the x-exponents of the equation
    and the exponent gaps of a prefix.

    The candidates span an integer lattice; a Hermite basis of that lattice
    is proposed, with signs flipped to positive real part where decidable.
    This is a convenience only: the result generates a semigroup containing
    the candidate lattice points with integer coefficients of either sign,
    which need not cover every future exponent gap.
    """
    cand: list = []
    seen = set()

    def push(e: Exponent):
        if e.is_zero() or e in seen:
            return
        seen.add(e)
        cand.append(e)

    if F is not None:
        for _, p, _ in F.terms:
            if p > 0:
                try:
                    push(basis.rational(p))
                except BasisMismatch:  # no entry 1 in the basis
                    pass
    if prefix is not None and prefix.terms:
        exps = [e for e, _ in prefix.terms]
        push(exps[0])
        for a, b in zip(exps, exps[1:]):
            push(b - a)

    note = "heuristic: lattice basis of observed exponent steps, not a certificate"
    if not cand:
        return {"candidates": [], "suggested": [], "note": note}

    denom = lcm(*(e.den for e in cand))
    int_rows = [[a * (denom // e.den) for a in e.nums] for e in cand]
    rows = _hnf_rows(int_rows)
    suggested = []
    for row in rows:
        e = basis.exponent([Fraction(v, denom) for v in row])
        try:
            sgn = e.re_sign()
        except UndecidableComparison:
            continue
        if sgn < 0:
            e = -e
        elif sgn == 0:
            continue
        suggested.append(e)
    return {
        "candidates": [e.serialize() for e in cand],
        "suggested": [e.serialize() for e in suggested],
        "note": note,
    }
