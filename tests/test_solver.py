"""Linearization extraction, the coefficient recursion, extension, reduction."""

import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dulac.errors import (
    AllDerivativesVanish,
    DerivativeYnZeroWarning,
    DomainError,
    IndeterminateRoot,
    NonpositiveValuation,
    NonProgressingResidual,
    Resonance,
)
from dulac.exponents import ExponentBasis
from dulac.numeric import check_conditions, roots_of_L
from dulac.ode import Evaluation, ODESpec
from dulac.scalars import ZERO, ExactScalar
from dulac.series import INF, DulacSeries, terms_from_json
from dulac.solver import (
    LinearData,
    extend,
    extract_linearization,
    reduce_equation,
    solve_coefficient,
)
from dulac.tpoly import TPoly

from .util import (
    DATA,
    basis_one,
    check_conditions_oracle,
    euler_ode,
    extend_counts,
    factorial_oracle,
    float_counts,
    log_resonant_oracle,
    random_poly,
    random_scalar,
    reduced_residual,
    resonant_double_ode,
    resonant_ode,
    semigroup_2d_oracle,
    substitute_direct,
    x_prefix,
)

FACT = [1, 1, 2, 6, 24, 120]


def _t_times_x(basis):
    return DulacSeries.monomial(basis.rational(1), TPoly.of(0, 1))


# -- extraction ------------------------------------------------------------


def test_extract_euler():
    basis = basis_one()
    lin = extract_linearization(euler_ode(), x_prefix(basis))
    assert lin.nu.coords == (Fraction(0),)
    assert lin.A == (ExactScalar.of(-1), ZERO)
    assert lin.ell == 0
    assert lin.L == TPoly.of(-1)
    assert lin.nu_sec[0] is None and lin.B[0] is None
    assert lin.nu_sec[1].coords == (Fraction(1),)
    assert lin.B[1] == TPoly.ONE
    assert lin.tau_re(1) == Fraction(1)
    # s = +inf with ell < n: tau is infinite, a one-line exit-2 error
    for tau in (lin.tau_re, lin.tau_exponent):
        with pytest.raises(DomainError, match="is infinite"):
            tau(INF)


def test_extract_along_empty_prefix():
    basis = basis_one()
    lin = extract_linearization(euler_ode(), DulacSeries.zero(basis))
    assert lin.stability_key() == extract_linearization(euler_ode(), x_prefix(basis)).stability_key()


def test_extract_resonant_has_degree_one_L():
    basis = basis_one()
    lin = extract_linearization(resonant_ode(), DulacSeries.zero(basis))
    assert lin.A == (ExactScalar.of(-1), ExactScalar.of(1))
    assert lin.ell == 1
    assert lin.L == TPoly.of(-1, 1)
    assert lin.tau_re(1) == lin.tau_re(INF) == Fraction(0)  # ell == n, for any s
    assert lin.tau_exponent(INF) == basis.zero()


def test_extract_all_vanish():
    basis = basis_one()
    F = ODESpec(1, ((ExactScalar.of(1), 0, (2, 0)),))  # y^2
    with pytest.raises(AllDerivativesVanish):
        extract_linearization(F, DulacSeries.zero(basis))


def test_extract_top_derivative_zero_warns():
    basis = basis_one()
    F = ODESpec(
        1,
        (
            (ExactScalar.of(1), 0, (0, 2)),  # (dy)^2
            (ExactScalar.of(1), 0, (1, 0)),
            (ExactScalar.of(-1), 1, (0, 0)),
        ),
    )
    with pytest.warns(DerivativeYnZeroWarning):
        lin = extract_linearization(F, DulacSeries.zero(basis))
    assert lin.ell == 0
    # a phi known only below 3 leaves dF/dy_1 = 2 dy known only below 3
    with pytest.warns(DerivativeYnZeroWarning, match="below cutoff 3;"):
        extract_linearization(F, DulacSeries.zero(basis, Fraction(3)))


def test_extract_nonconstant_leading_coefficient():
    # F = x*dy + y^2 - x^3 along t*x: dF/dy = 2y has leading coefficient 2t
    from dulac.errors import HypothesisViolation

    basis = basis_one()
    F = ODESpec(
        1,
        (
            (ExactScalar.of(1), 1, (0, 1)),
            (ExactScalar.of(1), 0, (2, 0)),
            (ExactScalar.of(-1), 3, (0, 0)),
        ),
    )
    with pytest.raises(HypothesisViolation):
        extract_linearization(F, _t_times_x(basis))


# -- characteristic roots ----------------------------------------------------


def test_roots_degree_0_1_2():
    assert roots_of_L(TPoly.of(-1)) == []
    (r,) = roots_of_L(TPoly.of(-1, 1))
    assert abs(r - 1) < 1e-25
    rs = sorted(roots_of_L(TPoly.of(2, -3, 1)), key=lambda z: z.real)
    assert abs(rs[0] - 1) < 1e-25 and abs(rs[1] - 2) < 1e-25


def test_roots_degree_3():
    # (z-1)(z-2)(z-3)
    rs = sorted(roots_of_L(TPoly.of(-6, 11, -6, 1)), key=lambda z: z.real)
    for r, want in zip(rs, (1, 2, 3)):
        assert abs(r - want) < 1e-15


# -- the coefficient recursion -----------------------------------------------


def test_solve_coefficient_examples():
    L = TPoly.of(-1, 1)  # zeta - 1
    assert solve_coefficient(L, ExactScalar.of(2), TPoly.ONE) == TPoly.ONE
    # (1 + d/dt) v = t  =>  v = t - 1
    assert solve_coefficient(L, ExactScalar.of(2), TPoly.of(0, 1)) == TPoly.of(-1, 1)
    assert solve_coefficient(L, ExactScalar.of(2), TPoly.ZERO) == TPoly.ZERO
    with pytest.raises(Resonance):
        solve_coefficient(L, ExactScalar.of(1), TPoly.ONE)


def test_solve_coefficient_accepts_exponent():
    basis = basis_one()
    L = TPoly.of(-1, 1)
    v = solve_coefficient(L, basis.rational(2), TPoly.ONE)
    assert v == TPoly.ONE


def _apply(L: TPoly, lam: ExactScalar, v: TPoly) -> TPoly:
    """L(lam + d/dt) v via the Taylor expansion of L at lam."""
    out = TPoly.ZERO
    d = v
    for mi in L.taylor_at(lam):
        out = out + d * mi
        d = d.deriv()
    return out


def test_solve_coefficient_roundtrip_random():
    rng = random.Random(61)
    done = 0
    while done < 300:
        L = random_poly(rng, max_deg=3)
        lam = random_scalar(rng)
        b = random_poly(rng, max_deg=4)
        try:
            v = solve_coefficient(L, lam, b)
        except Resonance:
            continue
        assert _apply(L, lam, v) == b
        assert v.degree == b.degree
        done += 1


# -- extension -----------------------------------------------------------------


def test_extend_euler_from_empty():
    basis = basis_one()
    state = extend(euler_ode(), DulacSeries.zero(basis), 6)
    assert state.solution.cutoff == Fraction(6)
    got = [(e.coords[0], c) for e, c in state.solution.terms]
    assert got == [(Fraction(k), TPoly.of(FACT[k - 1])) for k in range(1, 6)]
    assert len(state.history) == 5
    assert state.residual.leading()[0].coords == (Fraction(6),)


def test_extend_reads_a_float_cutoff_at_its_repr():
    basis = basis_one()
    state = extend(euler_ode(), DulacSeries.zero(basis), 2.1)
    assert state.solution.cutoff == Fraction(21, 10) == DulacSeries(basis, (), 2.1).cutoff
    assert state.solution.to_json()["cutoff"] == "21/10"
    assert len(state.solution.terms) == 2


def test_extend_euler_prefix_matches_empty():
    basis = basis_one()
    a = extend(euler_ode(), DulacSeries.zero(basis), 6)
    b = extend(euler_ode(), x_prefix(basis), 6)
    assert a.solution == b.solution
    assert len(b.history) == 4  # x itself was given


def test_extend_rejects_wrong_prefix():
    basis = basis_one()
    bad = x_prefix(basis) * 2  # c_1 = 2 is not a germ of a solution
    with pytest.raises(NonProgressingResidual):
        extend(euler_ode(), bad, 6)
    # x + x^3 skips x^2: the residual's head gives lambda = 2, above the
    # first prefix exponent but not above the last
    gap = x_prefix(basis) + DulacSeries.monomial(basis.rational(3), TPoly.ONE)
    with pytest.raises(NonProgressingResidual):
        extend(euler_ode(), gap, 6)


def test_extend_resonance_surfaces():
    basis = basis_one()
    with pytest.raises(Resonance):
        extend(resonant_ode(), DulacSeries.zero(basis), 5)


def test_extend_resonant_with_log_prefix():
    basis = basis_one()
    state = extend(resonant_ode(), _t_times_x(basis), 50)
    assert state.solution.terms == _t_times_x(basis).terms
    assert state.solution.cutoff == Fraction(50)
    assert state.residual.is_zero()
    assert state.history == ()


def test_extend_double_resonance_with_t2_prefix():
    basis = basis_one()
    prefix = DulacSeries.monomial(basis.rational(1), TPoly.of(0, 0, Fraction(1, 2)))
    state = extend(resonant_double_ode(), prefix, 30)
    assert state.residual.is_zero()
    assert state.solution.cutoff == Fraction(30)


# F = delta y - 2 y - x: its solutions are -x + C x^2, the resonance at 2 free
_FREE_RESONANCE = ODESpec.from_json({"n": 1, "terms": [
    {"coeff": "1/1", "x": 0, "y": [0, 1]},
    {"coeff": "-2/1", "x": 0, "y": [1, 0]},
    {"coeff": "-1/1", "x": 1, "y": [0, 0]},
]})


def test_extend_claims_no_more_than_its_prefix_is_known():
    # -x + x^2 and -x + 7 x^2 both extend -x + O(x^(3/2)), so the solution -x
    # is claimed below 3/2 only; the prefix -x known exactly leaves no x^2
    basis = basis_one()
    x = basis.rational(1)
    state = extend(_FREE_RESONANCE, DulacSeries.monomial(x, TPoly.of(-1), Fraction(3, 2)), 5)
    assert state.solution == DulacSeries.monomial(x, TPoly.of(-1), Fraction(3, 2))
    assert state.residual == DulacSeries.zero(basis, Fraction(3, 2))
    exact = extend(_FREE_RESONANCE, DulacSeries.monomial(x, TPoly.of(-1)), 5)
    assert exact.solution == DulacSeries.monomial(x, TPoly.of(-1), 5)


def test_extend_nonpositive_first_exponent():
    basis = basis_one()
    # F = x*dy - x*y + x: residual x at sigma = nu = 1 gives lambda_1 = 0
    F = ODESpec(
        1,
        (
            (ExactScalar.of(1), 1, (0, 1)),
            (ExactScalar.of(-1), 1, (1, 0)),
            (ExactScalar.of(1), 1, (0, 0)),
        ),
    )
    with pytest.raises(NonpositiveValuation):
        extend(F, DulacSeries.zero(basis), 3)


@pytest.mark.parametrize("name", ["nonlinear.json", "semigroup_2d.json", "resonant_logprefix.json"])
def test_extend_steps_match_unpruned_oracle(name):
    # every step's residual head, and the final residual, against the
    # unpruned oracle substituting the partial solution from scratch
    data = json.loads((DATA / name).read_text())
    basis = ExponentBasis(data["basis"])
    F = ODESpec.from_json(data["ode"])
    sol = DulacSeries.from_json({"terms": data["prefix"]}, basis)
    target = Fraction(data["cutoff"])
    state = extend(F, sol, target)
    nu = state.lin.nu
    bound = target + nu.re_mid

    def head(phi):
        full = substitute_direct(F, phi)
        return full.truncate(min(full.cutoff, bound)).leading()

    for lam, c, b in state.history:
        sigma, beta = head(sol)
        assert lam == sigma - nu
        assert b == -beta
        sol = sol + DulacSeries.monomial(lam, c)
    assert head(sol) is None
    assert sol.terms == state.solution.terms
    assert state.residual == substitute_direct(F, sol)


def test_extend_builds_no_series_per_step(monkeypatch):
    # every DulacSeries built is counted: a per-step rebuild of the residual
    # or of the solution would make the count grow with cutoff
    data = json.loads((DATA / "nonlinear.json").read_text())
    basis = ExponentBasis(data["basis"])
    F = ODESpec.from_json(data["ode"])
    prefix = DulacSeries.from_json({"terms": data["prefix"]}, basis)
    built = []
    init = DulacSeries.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DulacSeries, "__init__", counted_init)
    counts = {}
    for cutoff in (10, 30):
        built.clear()
        steps = len(extend(F, prefix, cutoff).history)
        counts[cutoff] = len(built), steps
    assert counts[10][1] < counts[30][1]
    assert counts[10][0] == counts[30][0]


@pytest.mark.parametrize("name, cutoff, products, sums", [
    ("semigroup_2d.json", 7, 364, 221),
    ("nonlinear.json", 30, 585, 436),
    ("euler.json", 80, 162, 79),
])
def test_extend_operation_counts(name, cutoff, products, sums):
    # the exact TPoly products and sums of one extend: noise-free cost
    # signals, pinned so that extra exact work shows up as a failure
    counts = extend_counts(name, cutoff)
    assert (counts["products"], counts["sums"]) == (products, sums)


@pytest.mark.parametrize("name, cutoff, built, compared", [
    ("semigroup_2d.json", 7, 79, 4),
    ("nonlinear.json", 30, 66, 4),
    ("euler.json", 80, 85, 4),
])
def test_extend_exponent_counts(name, cutoff, built, compared):
    # the evaluator keeps one Exponent per value, found by its int fields,
    # so one extend builds an exponent only for a value not met before and
    # its term maps match by identity, with no Python-level __eq__: 365,
    # 590 and 244 built and 762, 1,398 and 319 compared when each product
    # built its own exponent; each step's new exponent sigma - nu is looked
    # up in that table too (99, 94 and 163 built when each step built it);
    # a series canonicalization compares the coordinates of two neighbours
    # only when their sort keys are equal (99, 90 and 82 compared when it
    # compared every pair)
    counts = extend_counts(name, cutoff)
    assert (counts["exponents"], counts["compared"]) == (built, compared)


@pytest.mark.parametrize("name, cutoff, tpolys, lazy", [
    ("semigroup_2d.json", 7, 650, 3),
    ("nonlinear.json", 30, 1110, 3),
    ("euler.json", 80, 478, 3),
])
def test_extend_object_counts(name, cutoff, tpolys, lazy):
    # the TPolys one extend builds and its Exponent.__getattr__ entries, each
    # a failed slot read: over an exact basis an exponent gets its parts and
    # key at construction, so the lazy reads left are re_low of phi's
    # leading exponent and its re_mid, and the re_mid of nu (153, 125 and
    # 167 entries when parts and key were built on first read)
    counts = extend_counts(name, cutoff)
    assert (counts["tpolys"], counts["lazy"]) == (tpolys, lazy)


# every Fraction method that builds a Fraction
_FRACTION_BUILDERS = ("__new__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                      "__truediv__", "__rtruediv__", "__mod__", "__rmod__", "__pow__", "__rpow__",
                      "__neg__", "__pos__", "__abs__")


@pytest.mark.parametrize("name, cutoff, built", [
    ("semigroup_2d.json", 7, 10),
    ("nonlinear.json", 30, 6),
    ("euler.json", 80, 6),
])
def test_extend_fraction_counts(monkeypatch, name, cutoff, built):
    # the Fractions one extend builds, by a constructor call or an operator
    # outside the fractions module (so a Python version's own conversions
    # inside it do not count): constant coefficients and integral exponents
    # stay on ints (343, 359 and 582 when they built Fractions), and an
    # exponent reaches the polynomial kernels as its int triple, with the
    # step bound formed once (105, 115 and 256 when each solved exponent
    # built its value and each step its bound), and the derivatives read the
    # update steps, whose weight of 1 takes the coefficient itself (44, 30
    # and 21 when each derivative built its monomials again); an int
    # coordinate of an exponent builds no Fraction and F's weighted
    # coefficients are folded from their int fields (20, 12 and 9 when both
    # built Fractions)
    data = json.loads((DATA / name).read_text())
    basis = ExponentBasis(data["basis"])
    F = ODESpec.from_json(data["ode"])
    prefix = DulacSeries.from_json({"terms": data["prefix"]}, basis)
    out = []

    def counted(f):
        def wrapper(*args, **kwargs):
            q = f(*args, **kwargs)
            if type(q) is Fraction and sys._getframe(1).f_globals.get("__name__") != "fractions":
                out.append(q)
            return q
        return wrapper

    for op in _FRACTION_BUILDERS:
        f = Fraction.__dict__[op]
        monkeypatch.setattr(Fraction, op, staticmethod(counted(f.__func__)) if op == "__new__" else counted(f))
    extend(F, prefix, cutoff)
    monkeypatch.undo()
    assert len(out) == built


def test_exponent_key_ties_compare_in_c(monkeypatch):
    # over ["1", "1+1i"] many terms tie on the int floors of their keys; an
    # integral Re or Im enters the key as an int, so those ties compare in C:
    # one extend compares 10 Fractions, all of them outside the keys (362
    # when the integral parts entered as Fractions)
    data = json.loads((DATA / "semigroup_2d.json").read_text())
    basis = ExponentBasis(data["basis"])
    F = ODESpec.from_json(data["ode"])
    prefix = DulacSeries.from_json({"terms": data["prefix"]}, basis)
    calls = []

    def counted(a, b, f=Fraction.__eq__):
        calls.append(None)
        return f(a, b)

    monkeypatch.setattr(Fraction, "__eq__", counted)
    state = extend(F, prefix, 7)
    monkeypatch.undo()
    assert len(state.solution.terms) == 21
    assert len(calls) == 10


@pytest.mark.parametrize("name, cutoff", [("nonlinear.json", 12), ("euler.json", 26)])
@pytest.mark.parametrize("wide", [["1", "1+1i"], ["1", "1.41421356237"]], ids=["gaussian", "approximate"])
def test_zero_extra_coordinates_leave_the_solution_unchanged(name, cutoff, wide):
    # metamorphic: over a wider basis with every extra coordinate zero the
    # same equation has the same solution, term by term in exponent value; a
    # zero coordinate on an approximate entry adds no radius, so no
    # comparison is undecidable
    data = json.loads((DATA / name).read_text(encoding="utf-8"))
    ode = ODESpec.from_json(data["ode"])

    def solve(entries):
        basis = ExponentBasis(entries)
        pad = ["0/1"] * (len(entries) - 1)
        prefix = [{**term, "exp": term["exp"] + pad} for term in data["prefix"]]
        return extend(ode, DulacSeries(basis, terms_from_json(prefix, basis, "prefix"), INF), cutoff).solution

    narrow, wider = solve(["1"]), solve(wide)
    assert wider.cutoff == narrow.cutoff == cutoff
    assert len(wider.terms) == len(narrow.terms) >= 11
    for (e, c), (f, d) in zip(narrow.terms, wider.terms):
        assert f.coords == (*e.coords, 0)
        assert (f.re_mid, f.im_mid, d) == (e.re_mid, e.im_mid, c)


# -- splitting conditions ------------------------------------------------------


def test_check_conditions_euler():
    basis = basis_one()
    state = extend(euler_ode(), DulacSeries.zero(basis), 6)
    exps = [e for e, _ in state.solution.terms]
    rep = check_conditions(state.lin, exps, s=1)
    assert rep.roots_ok  # L is constant, no roots at all
    assert rep.root_margin is None
    # gap: Re lambda_m > Re nu_1 + 2 tau = 1 + 2
    assert rep.gap_ok and rep.gap_margin == pytest.approx(2.0)
    assert rep.minimal_m == 4
    assert rep.roots == ()


def test_check_conditions_roots_and_margin():
    basis = basis_one()
    lin = extract_linearization(resonant_ode(), DulacSeries.zero(basis))
    rep = check_conditions(lin, [basis.rational(3)], s=1)
    assert rep.roots_ok and rep.root_margin == pytest.approx(2.0)
    rep2 = check_conditions(lin, [basis.rational(Fraction(1, 2))], s=1)
    assert not rep2.roots_ok and rep2.minimal_m is None


def test_check_conditions_indeterminate_root():
    basis = basis_one()
    lin = extract_linearization(resonant_ode(), DulacSeries.zero(basis))
    with pytest.raises(IndeterminateRoot):
        check_conditions(lin, [basis.rational(1)], s=1)


def test_check_conditions_empty_prefix():
    basis = basis_one()
    lin = extract_linearization(resonant_ode(), DulacSeries.zero(basis))
    with pytest.raises(ValueError):
        check_conditions(lin, [], s=1)


_GAUSS = st.builds(
    lambda a, b, d: ExactScalar(Fraction(a, d), Fraction(b, d)),
    st.integers(-12, 12), st.sampled_from([0, 0, 1, -3, 7]), st.integers(1, 6),
)
# offsets of a prefix exponent from the real part of a root of L: on the
# line, inside or at the edge of the 1e-20 band, below the 128-bit
# resolution of the read (no margin on either side), and well clear
_OFFSETS = st.sampled_from([
    Fraction(0), Fraction(1, 10**21), Fraction(-1, 10**21), Fraction(1, 10**20), Fraction(-1, 10**20),
    Fraction(1, 10**45), Fraction(-1, 10**45), Fraction(1, 3), Fraction(-5, 7), Fraction(2),
])


def _condition_outcome(check, lin, prefix, s):
    # every ConditionReport field, each float by repr and each root by its bits
    try:
        rep = check(lin, prefix, s)
    except IndeterminateRoot as exc:
        return "IndeterminateRoot", str(exc)
    roots = [getattr(r, "_mpc_", None) or r._mpf_ for r in rep.roots]
    return rep.roots_ok, rep.gap_ok, repr(rep.root_margin), repr(rep.gap_margin), rep.minimal_m, roots


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_check_conditions_matches_the_per_root_oracle(data):
    # L of degree 1-3 over Q(i), built from Gaussian roots (so that a prefix
    # exponent can sit exactly on a root's line) or drawn coefficient by
    # coefficient, with the prefix then near two drawn points; the one-pass
    # test and the per-root oracle agree on every report field and on
    # IndeterminateRoot with its message
    basis = basis_one()
    degree = data.draw(st.integers(1, 3))
    if data.draw(st.booleans()):
        anchors = [data.draw(_GAUSS) for _ in range(degree)]
        L = TPoly((data.draw(_GAUSS.filter(lambda c: not c.is_zero())),))
        for rho in anchors:
            L = L * TPoly((-rho, ExactScalar.of(1)))
    else:
        anchors = [data.draw(_GAUSS) for _ in range(2)]
        L = TPoly((*[data.draw(_GAUSS) for _ in range(degree)], data.draw(_GAUSS.filter(lambda c: not c.is_zero()))))
    n = data.draw(st.integers(1, 3))
    ell = data.draw(st.integers(0, n))
    nu_sec = tuple(data.draw(st.one_of(st.none(), _GAUSS.map(lambda c: basis.rational(c.re)))) for _ in range(n + 1))
    lin = LinearData(basis.zero(), (), nu_sec, None, ell, L, n)
    prefix = [
        basis.rational(data.draw(st.sampled_from(anchors)).re + data.draw(_OFFSETS))
        for _ in range(data.draw(st.integers(1, 4)))
    ]
    s = Fraction(data.draw(st.integers(1, 9)), data.draw(st.integers(1, 4)))
    assert _condition_outcome(check_conditions, lin, prefix, s) == _condition_outcome(
        check_conditions_oracle, lin, prefix, s)


# -- reduction -------------------------------------------------------------------


def test_reduce_operation_counts():
    # the float work of one reduce from cold memos: the splitting conditions
    # place the roots of L once, in one mpmath.workprec entry (3 when each
    # prefix exponent and the report re-scanned the roots inside a workprec
    # of their own), and take no raw operation of the norm layer
    counts = float_counts("reduce", "resonant_double.json")
    assert counts == {"gamma": 0, "roots": 0, "raw_add": 0, "raw_mul": 0, "raw_div": 0, "raw_pow": 0,
                      "workprec": 1}


def test_reduce_equation_m1():
    basis = basis_one()
    state = extend(euler_ode(), DulacSeries.zero(basis), 6)
    red = reduce_equation(euler_ode(), state.solution, 1, s=1)
    assert red.L == TPoly.of(-1)
    assert red.lambda_m.coords == (Fraction(1),)
    assert red.tau.coords == (Fraction(1),)
    # a_0 = x^{-lambda_m - nu} F(x) = x
    n_map = dict(red.N)
    a0 = n_map[(0, 0)]
    assert [(e.coords, c) for e, c in a0.terms] == [((Fraction(1),), TPoly.ONE)]
    # gap condition fails at m = 1
    assert red.violations


def test_reduce_equation_m4_clean():
    basis = basis_one()
    state = extend(euler_ode(), DulacSeries.zero(basis), 6)
    red = reduce_equation(euler_ode(), state.solution, 4, s=1)
    assert red.violations == ()
    assert red.lambda_m.coords == (Fraction(4),)
    ltilde = dict(red.Ltilde)
    assert set(ltilde) == {1}
    with pytest.raises(ValueError):
        reduce_equation(euler_ode(), state.solution, 9, s=1)


def test_reduced_residual_of_exact_tail_vanishes():
    basis = basis_one()
    state = extend(euler_ode(), DulacSeries.zero(basis), 6)
    for m in (1, 4):
        red = reduce_equation(euler_ode(), state.solution, m, s=1)
        lam_m = state.solution.terms[m - 1][0]
        tail = DulacSeries(
            basis,
            tuple((e - lam_m, c) for e, c in state.solution.terms[m:]),
            state.solution.cutoff - lam_m.re_mid,
        )
        out = reduced_residual(red, tail)
        assert out.is_zero()
        assert out.cutoff == tail.cutoff


def _solved(name: str, cutoff):
    data = json.loads((DATA / name).read_text())
    basis = ExponentBasis(data["basis"])
    F = ODESpec.from_json(data["ode"])
    return F, extend(F, DulacSeries.from_json({"terms": data["prefix"]}, basis), cutoff)


@pytest.mark.parametrize("name, cutoff, m", [
    ("nonlinear.json", 12, 1),
    ("nonlinear.json", 12, 2),
    ("nonlinear.json", 12, 4),
    ("semigroup_2d.json", 5, 1),
    ("semigroup_2d.json", 5, 2),
])
def test_reduced_residual_of_exact_tail_vanishes_on_nonlinear_equations(name, cutoff, m):
    F, state = _solved(name, cutoff)
    red = reduce_equation(F, state.solution, m)
    assert any(sum(q) >= 2 for q, _ in red.N)  # the nonlinear terms a_q enter
    lam_m = state.solution.terms[m - 1][0]
    tail = DulacSeries(state.solution.basis, state.solution.terms[m:], state.solution.cutoff).shift(-lam_m)
    out = reduced_residual(red, tail)
    assert out.is_zero()
    assert out.cutoff == tail.cutoff


def test_reduce_equation_walks_the_down_closure_not_the_box(monkeypatch):
    # the Euler equation plus x^3 y_j^7 for j = 0..7: the y-exponent vectors
    # span a box of 8^8 vectors, but their down-closure holds only the 57
    # vectors k e_j, k = 0..7, and every q outside it has a zero derivative
    units = [tuple(int(i == j) for i in range(8)) for j in range(8)]
    F = ODESpec.from_json({"n": 7, "terms": [
        {"coeff": "1/1", "x": 1, "y": list(units[1])},
        {"coeff": "-1/1", "x": 0, "y": list(units[0])},
        {"coeff": "1/1", "x": 1, "y": [0] * 8},
        *({"coeff": "1/1", "x": 3, "y": [7 * a for a in u]} for u in units),
    ]})
    closure = sorted({tuple(k * a for a in u) for u in units for k in range(8)})
    assert len(closure) == 57
    calls = []
    derivative = Evaluation.derivative

    def counted(self, order):
        calls.append(order)
        # the linearization reads the 8 first derivatives, reduce the closure
        if len(calls) > len(units) + len(closure):
            raise AssertionError(f"derivative call {len(calls)}, at order {order}")
        return derivative(self, order)

    monkeypatch.setattr(Evaluation, "derivative", counted)
    red = reduce_equation(F, x_prefix(basis_one()), 1)
    assert calls[len(units):] == closure
    assert [q for q, _ in red.N] == [q for q in closure if sum(q) != 1]


def test_reduce_equation_reports_secondary_gap_below_slope():
    F, state = _solved("nonlinear.json", 12)
    violations = reduce_equation(F, state.solution, 4, s=3).violations
    assert "secondary gap Re mu_1 = 1 is below (j - ell) s = 3" in violations
    assert reduce_equation(F, state.solution, 4).violations == ()


# -- two equation families against their coefficient recursions --------------

# fractions with large denominators and small integers of either sign, and
# zero, which drops the parameter's term from the equation
_FAMILY_PARAM = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=10**6).filter(bool),
    st.integers(-3, 3).filter(bool).map(Fraction),
    st.just(Fraction(0)),
)


def _literal(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


_DELTA_Y = ("1/1", 0, (0, 1))


def _extend_family(entries, terms, prefix, cutoff) -> tuple:
    """extend on (the given terms) = 0 from the prefix terms (exponent
    coordinates, coefficient literals): the solution terms as
    (coordinates, [(re, im) per coefficient]) and the SolutionState.  A term
    with a zero coefficient is left out of the equation, as ODESpec
    requires.  The solved steps are the solution's last terms: no step is
    taken at or past the cutoff."""
    basis = ExponentBasis(entries)
    F = ODESpec.from_json({"n": 1, "terms": [
        {"coeff": coeff, "x": x, "y": list(y)} for coeff, x, y in terms if not coeff.startswith("0/")]})
    phi = DulacSeries.from_json({"terms": [
        {"exp": [_literal(Fraction(v)) for v in exp], "poly": poly} for exp, poly in prefix]}, basis)
    state = extend(F, phi, cutoff)

    def listed(terms) -> list:
        return [(e.coords, [(q.re, q.im) for q in c.coeffs]) for e, c, *_ in terms]

    got, steps = listed(state.solution.terms), listed(state.history)
    assert got[len(got) - len(steps):] == steps
    return got, state


@settings(max_examples=60, deadline=None, derandomize=True)
@given(a=_FAMILY_PARAM, b=_FAMILY_PARAM, cutoff=st.sampled_from([Fraction(k, 3) for k in range(2, 22)]))
@example(a=Fraction(-7, 123457), b=Fraction(5, 3), cutoff=Fraction(7))
def test_log_resonant_family_matches_its_recursion(a, b, cutoff):
    # delta y - y - a x - b y^2 = 0 with the resonant prefix a t x: each step
    # solves (k - 1 + d/dt) c_k = ... on a log polynomial of degree k
    got, state = _extend_family(
        ["1"],
        [_DELTA_Y, ("-1/1", 0, (1, 0)), (_literal(-a), 1, (0, 0)), (_literal(-b), 0, (2, 0))],
        [((1,), ["0/1", _literal(a)])],
        cutoff,
    )
    want = [((Fraction(k),), c) for k, c in log_resonant_oracle(a, b, cutoff)]
    assert got == want
    assert state.solution.cutoff == cutoff


@settings(max_examples=60, deadline=None, derandomize=True)
@given(a=_FAMILY_PARAM, b=_FAMILY_PARAM, c=_FAMILY_PARAM,
       cutoff=st.sampled_from([Fraction(k, 3) for k in range(2, 17)]))
@example(a=Fraction(2, 999983), b=Fraction(-3, 7), c=Fraction(-5, 11), cutoff=Fraction(11, 2))
def test_semigroup_2d_family_matches_its_recursion(a, b, c, cutoff):
    # delta y - (1+i) y - a x y - b y^2 = 0 with the prefix c x^(1+i) over
    # ["1", "1+1i"]: every step solves at a complex exponent
    got, state = _extend_family(
        ["1", "1+1i"],
        [_DELTA_Y, ("-1/1-1/1i", 0, (1, 0)), (_literal(-a), 1, (1, 0)), (_literal(-b), 0, (2, 0))],
        [((0, 1), [_literal(c)])],
        cutoff,
    )
    want = [((Fraction(p), Fraction(q)), poly) for (p, q), poly in semigroup_2d_oracle(a, b, c, cutoff)]
    assert got == want
    assert state.solution.cutoff == cutoff


@settings(max_examples=60, deadline=None, derandomize=True)
@given(a=_FAMILY_PARAM, b=_FAMILY_PARAM, cutoff=st.sampled_from([Fraction(k, 3) for k in range(2, 40)]),
       with_prefix=st.booleans())
@example(a=Fraction(1), b=Fraction(0), cutoff=Fraction(14), with_prefix=False)
@example(a=Fraction(1), b=Fraction(1), cutoff=Fraction(14), with_prefix=False)
@example(a=Fraction(-5, 999979), b=Fraction(7, 3), cutoff=Fraction(25, 2), with_prefix=True)
def test_factorial_family_matches_its_recursion(a, b, cutoff, with_prefix):
    # x delta y - y + a x + b y^2 = 0, from the empty prefix or from a x: L =
    # -1 has no root, so every coefficient is a constant; a = 1 gives the
    # factorial series (b = 0) and its nonlinear variant (b = 1)
    got, state = _extend_family(
        ["1"],
        [("1/1", 1, (0, 1)), ("-1/1", 0, (1, 0)), (_literal(a), 1, (0, 0)), (_literal(b), 0, (2, 0))],
        [((1,), [_literal(a)])] if with_prefix and a else [],
        cutoff,
    )
    assert got == [((Fraction(k),), [(c, 0)]) for k, c in factorial_oracle(a, b, cutoff)]
    assert state.solution.cutoff == cutoff
    # dF/dy_0 = -1 + 2 b y and dF/dy_1 = x: A = (-1, 0), ell = 0, slope 1
    lin = extract_linearization(state.F, state.solution)
    assert (lin.A, lin.ell, lin.slope()) == ((ExactScalar.of(-1), ZERO), 0, 1)
