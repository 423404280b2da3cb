"""Linearization data, the coefficient recursion, and prefix extension.

Given F(x, y, delta y, ..., delta^n y) = 0 and a prefix phi of a candidate
Dulac-series solution, the derivatives of F along phi decompose as

    dF/dy_j (x, phi, ...) = A_j x^nu + B_j(t) x^{nu_j} + ...

with one shared leading exponent nu, constant leading coefficients A_j (zero
for the derivatives that start later), and secondary terms of strictly larger
real part.  The characteristic polynomial L(zeta) = sum A_j zeta^j over
j <= ell, ell = max{j : A_j != 0}, drives the term-by-term recursion: each
new term c(t) x^l of the solution solves L(l + d/dt) c = b against the
lowest term b of the current residual.  L(l) != 0 makes that solvable with a
unique polynomial of the same degree; L(l) = 0 is a resonance and requires
the user to supply the logarithmic part by hand in the prefix.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from fractions import Fraction

from .errors import (
    AllDerivativesVanish,
    DerivativeYnZeroWarning,
    DomainError,
    HypothesisViolation,
    IndeterminateRoot,
    LinearDataDrift,
    NonpositiveValuation,
    NonProgressingResidual,
    Resonance,
    SlopeUndetermined,
)
from .exponents import Exponent, exp_compare, re_compare
from .ode import Evaluation, ODESpec
from .scalars import ZERO
from .series import INF, DulacSeries, _as_cutoff
from .tpoly import TPoly

MAX_EXTENSION_STEPS = 10000


class LinearData(namedtuple("LinearData", "nu A nu_sec B ell L n")):
    """Leading data of the derivatives of F along a prefix: the shared
    leading exponent nu, the n+1 ExactScalars A_j, the secondary exponents
    nu_sec (Exponent or None each) with their TPoly coefficients B (or
    None), ell = max j with A_j nonzero, and the characteristic polynomial L
    in zeta."""

    __slots__ = ()

    def stability_key(self):
        return (self.nu, self.A, self.ell)

    def slope(self):
        """Growth order parameter s = min over j > ell of
        (Re nu_j - Re nu) / (j - ell); +inf when A_n != 0."""
        if not self.A[self.n].is_zero():
            return INF
        cands = [
            (self.nu_sec[j].re_mid - self.nu.re_mid) / Fraction(j - self.ell)
            for j in range(self.ell + 1, self.n + 1)
            if self.nu_sec[j] is not None
        ]
        if not cands:
            raise SlopeUndetermined(
                "slope: A_n = 0 and no derivative shows a secondary term below the "
                "cutoff; the growth order cannot be determined from the data"
            )
        return min(cands)

    def tau_re(self, s) -> Fraction:
        """Real value tau = (n - ell) * s for the growth order s; zero when
        ell = n.  DomainError when s = +inf and ell < n: tau is infinite."""
        if self.ell == self.n:
            return Fraction(0)
        if s == INF:
            raise DomainError(
                f"tau = (n - ell) s is infinite: growth order s = inf with ell = {self.ell} < n = {self.n}"
            )
        return (self.n - self.ell) * Fraction(s)

    def tau_exponent(self, s) -> Exponent:
        """tau embedded as an exponent over the basis (needs the entry 1)."""
        if self.ell == self.n:
            return self.nu.basis.zero()
        return self.nu.basis.rational(self.tau_re(s))

    def to_json(self) -> dict:
        return {
            "nu": self.nu.serialize(),
            "A": [str(a) for a in self.A],
            "nu_secondary": [e.serialize() if e is not None else None for e in self.nu_sec],
            "B": [c.serialize() if c is not None else None for c in self.B],
            "ell": self.ell,
            "L": self.L.serialize(),
        }


def extract_linearization(F: ODESpec, phi: DulacSeries | Evaluation) -> LinearData:
    """Decompose the derivatives of F along phi into leading and secondary data.

    phi is a DulacSeries or an Evaluation of F holding the terms fed so far;
    either way the derivatives are read off an Evaluation's products, with
    the cutoff that the evaluator reads from the phi it was built from.
    phi may be zero (seeding an empty prefix): only the monomials of each
    derivative that are free of y survive in that case.
    """
    evaluation = phi if isinstance(phi, Evaluation) else Evaluation(F, phi)
    zero = (0,) * (F.n + 1)
    units = [zero[:j] + (1,) + zero[j + 1:] for j in range(F.n + 1)]
    G = [evaluation.derivative(e_j) for e_j in units]
    nonzero = [g for g in G if g.terms]
    if not nonzero:
        raise AllDerivativesVanish(
            "extract_linearization: every derivative of F vanishes along the prefix"
        )
    nu = min((g.terms[0][0] for g in nonzero), key=lambda e: e.key)
    A, nu_sec, B = [], [], []
    for j, g in enumerate(G):
        rest = g.terms
        if rest and rest[0][0] == nu:
            lead_c = rest[0][1]
            if lead_c.degree != 0:
                raise HypothesisViolation(
                    f"extract_linearization: coefficient of x^{nu} in dF/dy_{j} is "
                    f"the nonconstant polynomial {lead_c}; the leading linear data "
                    "must be constant"
                )
            A.append(lead_c[0])
            rest = rest[1:]
        else:
            A.append(ZERO)
        e2, c2 = rest[0] if rest else (None, None)
        if rest and re_compare(e2, nu) <= 0:
            raise HypothesisViolation(
                f"extract_linearization: secondary exponent {e2} of dF/dy_{j} does "
                f"not exceed nu = {nu} in real part"
            )
        nu_sec.append(e2)
        B.append(c2)
    if not G[F.n].terms:
        warnings.warn(
            DerivativeYnZeroWarning(
                f"dF/dy_{F.n} vanishes below cutoff {G[F.n].cutoff}; the equation "
                "may be degenerate in its top-order variable"
            )
        )
    ell = max(j for j, a in enumerate(A) if not a.is_zero())
    L = TPoly(tuple(A[: ell + 1]))
    return LinearData(nu=nu, A=tuple(A), nu_sec=tuple(nu_sec), B=tuple(B), ell=ell, L=L, n=F.n)


def solve_coefficient(L: TPoly, lam, b: TPoly) -> TPoly:
    """Unique polynomial v with L(lam + d/dt) v = b, given L(lam) != 0.

    The operator acts triangularly in the degree: expanding L(lam + d/dt) =
    sum_i L^(i)(lam)/i! (d/dt)^i, the top coefficient of v is fixed by
    L(lam) alone and lower ones follow by back-substitution (on integers,
    TPoly.solve_shifted, which takes an exponent lam as is).  All arithmetic
    is exact; L(lam) = 0 raises Resonance.
    """
    try:
        return L.solve_shifted(lam, b)
    except ZeroDivisionError:
        raise Resonance(
            f"solve_coefficient: characteristic polynomial vanishes at lambda = {lam}; "
            "the recursion has no unique polynomial solution there",
            exponent=lam,
        ) from None


class SolutionState(namedtuple("SolutionState", "F solution residual lin history")):
    """A solved (or partially solved) prefix together with its audit trail,
    the history of (lambda_k, c_k, b_k)."""

    __slots__ = ()

    def to_json(self) -> dict:
        """The solution, residual, linearization and history documents.  Each
        solved term is serialized once: its literal lists in the solution
        serve its history entry too.  A solved term the solution's cutoff left
        out is serialized for the history alone."""
        solution = self.solution.to_json()
        literals = {(e.den, e.nums): t for (e, _), t in zip(self.solution.terms, solution["terms"])}
        history = []
        for e, c, b in self.history:
            t = literals.get((e.den, e.nums)) or {"exp": e.serialize(), "poly": c.serialize()}
            history.append({"lambda": t["exp"], "c": t["poly"], "b": b.serialize()})
        return {
            "solution": solution,
            "residual": self.residual.to_json(),
            "linearization": self.lin.to_json(),
            "history": history,
        }


def extend(F: ODESpec, prefix: DulacSeries, target_cutoff) -> SolutionState:
    """Extend a prefix to all exponents with real part below target_cutoff.

    The prefix's terms are trusted as the actual first terms of a formal
    solution, known only below the prefix's cutoff: exact leading data is a
    prefix with cutoff inf, which is what the CLI builds.  A finite cutoff
    bounds every claim.  The evaluator reads it from the prefix, so each
    term of dF/dy_j, of real part at least p + (|q| - 1) low for its
    monomial x^p y^q, puts Re nu at or above mu, the least such value; the
    residual's cutoff is at most prefix.cutoff + mu, and the solution's
    cutoff residual.cutoff - Re nu at most prefix.cutoff.  Starting from an
    empty prefix is allowed: the first residual term seeds lambda_1 unless
    it is resonant.
    Each step takes the lowest residual term beta(t) x^sigma below
    target_cutoff + Re nu, forms lambda_new = sigma - nu, requires it to
    strictly increase, and solves L(lambda_new + d/dt) c = -beta.  The
    residual F(sol) is kept by one Evaluation, fed the prefix and then each
    solved term: a step reads its head and the last solved exponent off the
    evaluator and updates its products, so no step substitutes again or
    builds a series.  After the loop the linearization is re-extracted from
    the same evaluator's products, and its value is the returned residual;
    if (nu, A, ell) changed, the run is restarted once with the stabilized
    data before giving up.
    """
    return _extend(F, prefix, _as_cutoff(target_cutoff), pinned=None)


def _extend(F, prefix, target, pinned) -> SolutionState:
    evaluation = Evaluation(F, prefix)
    lin = pinned if pinned is not None else extract_linearization(F, evaluation)
    nu_re = lin.nu.re_mid
    bound = target + nu_re
    history = []
    while True:
        head = evaluation.leading(bound)
        if head is None:
            break
        sigma, beta = head
        lam_new = evaluation.difference(sigma, lin.nu)
        if evaluation.terms:
            last = evaluation.terms[-1][0]
            if exp_compare(lam_new, last) <= 0:
                raise NonProgressingResidual(
                    f"extend: next exponent {lam_new} does not exceed the last "
                    f"solved exponent {last}; the prefix is not a "
                    "consistent germ of a solution"
                )
        elif lam_new.re_sign() <= 0:
            raise NonpositiveValuation(
                f"extend: first solution exponent {lam_new} has nonpositive real "
                "part; no admissible series solution starts there"
            )
        c_new = solve_coefficient(lin.L, lam_new, -beta)
        evaluation.add(lam_new, c_new)
        history.append((lam_new, c_new, -beta))
        if len(history) > MAX_EXTENSION_STEPS:
            raise NonProgressingResidual(
                f"extend: more than {MAX_EXTENSION_STEPS} terms below cutoff "
                f"{target}; the exponents accumulate without reaching it"
            )
    lin_final = lin
    if evaluation.terms:
        lin_final = extract_linearization(F, evaluation)
        if lin_final.stability_key() != lin.stability_key():
            if pinned is not None:
                raise LinearDataDrift(
                    "extend: linearization (nu, A, ell) changed again after the "
                    "adaptive restart; the prefix does not stabilize the data"
                )
            return _extend(F, prefix, target, pinned=lin_final)
    residual = evaluation.value()
    achieved = min(target, residual.cutoff - nu_re)
    solution = DulacSeries(prefix.basis, tuple(evaluation.terms), achieved)
    return SolutionState(F=F, solution=solution, residual=residual, lin=lin_final, history=tuple(history))


class ReducedEquation(namedtuple("ReducedEquation", "L Ltilde N lambda_m nu tau violations")):
    """Data of the equation satisfied by the normalized tail u, where
    y = phi_m + x^{lambda_m} u:

        L(lambda_m + delta) u + sum_j Ltilde_j(t, x) (lambda_m + delta)^j u
          + sum_q a_q(t, x) x^{tau |q|} prod_j ((lambda_m + delta)^j u)^{q_j} = 0

    with a_q = x^{(|q|-1) lambda_m - nu - tau |q|} * (1/q!) d^q F(x, phi_m).
    Ltilde holds the nonzero (j, DulacSeries), j = 0..n, and N the nonzero
    (q, DulacSeries) with |q| != 1.  Violations of the splitting conditions
    are recorded, not raised.
    """

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "L": self.L.serialize(),
            "lambda_m": self.lambda_m.serialize(),
            "nu": self.nu.serialize(),
            "tau": self.tau.serialize(),
            "Ltilde": [{"j": j, "series": g.to_json()} for j, g in self.Ltilde],
            "N": [{"q": list(q), "series": g.to_json()} for q, g in self.N],
            "violations": list(self.violations),
        }


def reduce_equation(F: ODESpec, prefix: DulacSeries, m: int, s=None) -> ReducedEquation:
    """Build the reduced equation for the tail after the first m prefix terms.

    The splitting conditions are checked by numeric.check_conditions, so
    this function, unlike the rest of the module, loads mpmath."""
    if not 1 <= m <= len(prefix.terms):
        raise ValueError(
            f"reduce_equation: m = {m} outside 1..{len(prefix.terms)} prefix terms"
        )
    basis = prefix.basis
    phi = DulacSeries(basis, prefix.terms[:m], INF)
    evaluation = Evaluation(F, phi)
    lin = extract_linearization(F, evaluation)
    lam_m = phi.terms[-1][0]
    s_val = lin.slope() if s is None else s
    tau = lin.tau_exponent(s_val)

    violations = []
    ltilde = []
    nterms = []
    # q = 0 is the residual term; a q outside the down-closure of F's
    # y-exponent vectors has a zero derivative
    for q in F.y_closure():
        fq = evaluation.derivative(q)
        if fq.is_zero():
            continue
        k = sum(q)
        if k == 1:
            j = q.index(1)
            g = fq.shift(-lin.nu) - DulacSeries.monomial(basis.zero(), TPoly.of(lin.A[j]))
            if g.is_zero():
                continue
            if not g.val() > 0:
                violations.append(
                    f"Ltilde_{j} has a term with nonpositive exponent (val {g.val()})"
                )
            ltilde.append((j, g))
        else:
            shift = lam_m * (k - 1) - lin.nu - tau * k
            aq = fq.shift(shift)
            if not aq.val() > 0:
                violations.append(
                    f"a_q for q = {q} has valuation {aq.val()} <= 0; the gap "
                    "condition Re lambda_m > max Re nu_j + 2 tau fails at this m"
                )
            nterms.append((q, aq))

    if lin.ell < F.n:
        for j in range(lin.ell + 1, F.n + 1):
            if lin.nu_sec[j] is not None:
                mu_re = lin.nu_sec[j].re_mid - lin.nu.re_mid
                if mu_re < (j - lin.ell) * Fraction(s_val):
                    violations.append(
                        f"secondary gap Re mu_{j} = {mu_re} is below (j - ell) s = "
                        f"{(j - lin.ell) * Fraction(s_val)}"
                    )
    # the root test places the roots of L in floats, so it lives in the float
    # layer, which nothing else in this module needs
    from .numeric import check_conditions

    try:
        report = check_conditions(lin, [e for e, _ in phi.terms], s_val)
        if not report.roots_ok:
            violations.append(
                f"a root of L has real part >= Re lambda_m = {lam_m.re_mid}"
            )
        if not report.gap_ok:
            violations.append(
                f"Re lambda_m = {lam_m.re_mid} does not exceed max Re nu_j + 2 tau"
            )
    except IndeterminateRoot as exc:
        violations.append(str(exc))

    return ReducedEquation(
        L=lin.L,
        Ltilde=tuple(ltilde),
        N=tuple(nterms),
        lambda_m=lam_m,
        nu=lin.nu,
        tau=tau,
        violations=tuple(violations),
    )
