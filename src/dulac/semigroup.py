"""Finitely generated exponent semigroups and related exact linear algebra.

The exponents of a solved series, measured from a chosen base term, land in
the semigroup of nonnegative integer combinations of finitely many complex
generators r_1, ..., r_kappa that are independent over the integers and have
positive real parts.  Independence over Z is equivalent to independence over
Q of the rational coordinate vectors, so validation, membership and the
suggested generators all reduce to one Hermite reduction of the integer
coordinate rows over the declared basis.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import BasisMismatch, DependentGenerators, NonpositiveRealPart, UndecidableComparison
from .exponents import Exponent, ExponentBasis
from .scalars import Value, slot_setters


# -- integer linear algebra (small dense systems) --------------------------


def _int_rows(exps) -> tuple:
    """(d, rows): the coordinates of the exponents as int rows over one
    common denominator d."""
    d = lcm(*(e.den for e in exps))
    return d, [[a * (d // e.den) for a in e.nums] for e in exps]


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


def _relation(exps):
    """The primitive integer relation sum c_i e_i = 0 of exponents whose
    relations have rank at most 1 (a list c), or None when they are
    independent: the right block of the row whose left block vanishes in
    the Hermite form of [int rows | identity] (H. Cohen, A Course in
    Computational Algebraic Number Theory, 2.4)."""
    n, dim = len(exps), exps[0].basis.dim
    rows = [row + [int(i == j) for j in range(n)] for i, row in enumerate(_int_rows(exps)[1])]
    return next((row[dim:] for row in _hnf_rows(rows) if not any(row[:dim])), None)


# -- generators -------------------------------------------------------------


class Generators(Value):
    """Validated semigroup generators r (a tuple of Exponent) over a shared
    exponent basis; immutable, equal when basis and r are.

    The exponent <m, r> is computed once per multi-index m and kept (its
    Re and Im are kept on it), since norm tables, series sorts, hat_delta
    and the iota image ask for the same m many times; so is the
    decomposition of each exponent, which the gaps and the iota image of a
    run both ask for.  The hash, which keys the norm tables, is computed
    once; a pickle rebuilds it through the constructor.
    """

    __slots__ = ("basis", "r", "_hash", "_m_exponents", "_decomposed")
    _fields = ("basis", "r")

    def __init__(self, basis: ExponentBasis, r: tuple):
        for set_slot, value in zip(_GENERATORS_SETTERS, (basis, r, hash((basis, r)), {}, {})):
            set_slot(self, value)

    def __hash__(self) -> int:
        return self._hash

    @property
    def kappa(self) -> int:
        return len(self.r)

    def m_exponent(self, m) -> Exponent:
        """The exponent <m, r> = sum m_i r_i; ValueError unless m has kappa
        entries."""
        m = tuple(m)
        e = self._m_exponents.get(m)
        if e is None:
            if len(m) != len(self.r):
                raise ValueError(f"Generators: multi-index {m} does not have kappa = {len(self.r)} entries")
            e = self.basis.zero()
            for mi, ri in zip(m, self.r):
                if mi:
                    e = e + ri * mi
            self._m_exponents[m] = e
        return e

    def decomposition(self, lam: Exponent):
        """decompose(lam, self), solved once per exponent and kept."""
        if lam not in self._decomposed:
            self._decomposed[lam] = decompose(lam, self)
        return self._decomposed[lam]

    def serialize(self) -> list:
        return [g.serialize() for g in self.r]


_GENERATORS_SETTERS = slot_setters(Generators)


def validate_generators(rs) -> Generators:
    """Check positivity of real parts and integer independence.

    Dependence is reported with an explicit integer relation witness m != 0
    such that sum m_j r_j = 0: the primitive relation of the shortest
    dependent prefix r_1..r_f, with m_f > 0, padded with zeros.
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
    for f in range(2, len(rs) + 1):
        rel = _relation(rs[:f])
        if rel is not None:
            witness = [c if rel[-1] > 0 else -c for c in rel] + [0] * (len(rs) - f)
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
    error.  lam is a member exactly when the primitive relation of
    (r_1..r_kappa, lam) has last entry +-1 and the others of the opposite
    sign, not all zero.
    """
    if lam.basis != gens.basis:
        return None
    rel = _relation(gens.r + (lam,))
    if rel is None or abs(rel[-1]) != 1:
        return None
    m = tuple(-rel[-1] * c for c in rel[:-1])
    return m if any(m) and min(m) >= 0 else None


def choose_R(Kcal, gens: Generators) -> tuple:
    """Norm weight rule: theta_bound = 1/min Re r_j; R = max(2, 2 Kcal theta).

    The bound 1/min Re r_j is uniform in the base exponent lambda, since
    |lambda + <m,r>| >= Re lambda + |m| min Re r_j.

    The returned R keeps the derivative-term contraction below 1 whenever
    the coefficient degrees grow at most like Kcal * |m|.
    """
    beta = min(g.re_mid for g in gens.r)
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


def suggest_generators(F, prefix, basis: ExponentBasis) -> dict:
    """Heuristic generator candidates from the x-exponents of the equation
    and the exponent gaps of a prefix.

    The candidates span an integer lattice; a Hermite basis of that lattice
    is proposed, with signs flipped to positive real part where decidable.
    This is a convenience only: the result generates a semigroup containing
    the candidate lattice points with integer coefficients of either sign,
    which need not cover every future exponent gap.
    """
    xs = []
    if F is not None:
        try:
            xs = [basis.rational(p) for _, p, _ in F.terms if p > 0]
        except BasisMismatch:  # no entry 1 in the basis
            pass
    exps = [e for e, _ in prefix.terms] if prefix is not None else []
    steps = [b - a for a, b in zip(exps, exps[1:])]
    # the nonzero candidates, each once, in order of first appearance
    cand = list(dict.fromkeys(e for e in [*xs, *exps[:1], *steps] if not e.is_zero()))

    note = "heuristic: lattice basis of observed exponent steps, not a certificate"
    if not cand:
        return {"candidates": [], "suggested": [], "note": note}

    denom, int_rows = _int_rows(cand)
    suggested = []
    for row in _hnf_rows(int_rows):
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
