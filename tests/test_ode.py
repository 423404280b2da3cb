"""ODESpec validation, and the evaluator and its derivatives against the unpruned oracle."""

import random
import time
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dulac.errors import (
    DerivativeYnZeroWarning,
    DulacError,
    NonpositiveValuation,
    SchemaError,
    UndecidableComparison,
)
from dulac.exponents import ExponentBasis
from dulac.ode import Evaluation, ODESpec, multi_indices
from dulac.scalars import ExactScalar
from dulac.series import INF, DulacSeries
from dulac.solver import extend, extract_linearization
from dulac.tpoly import TPoly

from .util import (
    basis_mixed,
    basis_one,
    euler_ode,
    nonlinear_ode,
    random_series,
    substitute_direct,
    x_prefix,
)


def test_from_json_euler():
    ode = euler_ode()
    assert ode.n == 1
    assert len(ode.terms) == 3
    assert ode.declared_degree is None


@pytest.mark.parametrize(
    "data",
    [
        {"terms": []},  # n missing
        {"n": 0, "terms": [{"coeff": "1/1", "x": 1, "y": [1]}]},  # order < 1
        {"n": 1, "terms": [{"coeff": "1/1", "x": 1, "y": [0]}]},  # y-vector too short
        {"n": 1, "terms": [{"coeff": "1/1", "x": -1, "y": [0, 1]}]},  # negative power
        {"n": 1, "terms": [{"coeff": "1/1", "x": 0, "y": [0, 0]}]},  # constant monomial
        {"n": 1, "terms": [{"coeff": "0/1", "x": 1, "y": [0, 1]}]},  # zero coefficient
        {
            "n": 1,
            "terms": [
                {"coeff": "1/1", "x": 1, "y": [0, 1]},
                {"coeff": "2/1", "x": 1, "y": [0, 1]},
            ],
        },  # duplicate monomial
        {
            "n": 1,
            "degree": 1,
            "terms": [{"coeff": "1/1", "x": 1, "y": [0, 1]}],
        },  # monomial above declared degree
        {"n": 1, "terms": [{"coeff": "not a number", "x": 1, "y": [0, 1]}]},
    ],
)
def test_from_json_rejects(data):
    with pytest.raises(SchemaError):
        ODESpec.from_json(data)


def test_partial_power_rule():
    # F = y_0^3 => dF/dy_0 = 3 phi^2, and the scaled second derivative
    # (1/2!) d^2/dy_0^2 takes the binomial weight C(3, 2) = 3: 3 phi
    basis = basis_one()
    phi = DulacSeries(basis, ((basis.rational(1), TPoly.ONE), (basis.rational(2), TPoly.of(-2))), INF)
    ev = Evaluation(ODESpec(1, ((ExactScalar.of(1), 0, (3, 0)),)), phi)
    assert ev.derivative((1, 0)) == phi * phi * TPoly.of(3)
    assert ev.derivative((2, 0)) == phi * TPoly.of(3)
    assert ev.derivative((3, 0)) == DulacSeries.monomial(basis.zero(), TPoly.ONE)
    assert ev.derivative((4, 0)).is_zero()
    assert ev.derivative((0, 1)).is_zero()


@pytest.mark.parametrize("order", [(1,), (1, 0, 0), (0,), (1, -1), (-1, 0), (1.0, 0), (0, "1")])
def test_derivative_refuses_an_order_that_is_not_n_plus_1_nonnegative_ints(order):
    ev = Evaluation(ODESpec(1, ((ExactScalar.of(1), 0, (3, 0)),)), x_prefix(basis_one()))
    with pytest.raises(ValueError, match="nonnegative ints"):
        ev.derivative(order)


def test_partial_drops_missing_variable():
    # F = x dy - y + x has no y_1^2 term, so d/dy_1 has the single monomial
    # x and is x whatever phi is
    basis = basis_one()
    d = Evaluation(euler_ode(), x_prefix(basis)).derivative((0, 1))
    assert d == DulacSeries.monomial(basis.rational(1), TPoly.ONE)


def test_substitute_euler_at_x():
    # F = x*dy - y + x at phi = x: delta x = x, so F = x^2 exactly
    basis = basis_one()
    res = Evaluation(euler_ode(), x_prefix(basis)).value()
    assert len(res.terms) == 1
    e, c = res.terms[0]
    assert e.coords == (Fraction(2),)
    assert c == TPoly.ONE
    assert res.cutoff == INF


def test_substitute_nonlinear_at_x():
    # extra y_0^2 contributes another x^2: F = 2 x^2
    basis = basis_one()
    res = Evaluation(nonlinear_ode(), x_prefix(basis)).value()
    assert len(res.terms) == 1
    assert res.terms[0][1] == TPoly.of(2)


def test_substitute_requires_positive_valuation():
    basis = basis_one()
    bad = DulacSeries.monomial(basis.rational(0), TPoly.ONE)
    with pytest.raises(NonpositiveValuation):
        Evaluation(euler_ode(), bad)
    neg = DulacSeries.monomial(basis.rational(-1), TPoly.ONE)
    with pytest.raises(NonpositiveValuation):
        Evaluation(euler_ode(), neg)


def test_evaluation_refuses_a_zero_phi_with_nonpositive_cutoff():
    # F = y0^2 + y1 at phi = O(x^-1) would claim cutoff -1, but the
    # extension x^-1 gives x^-2: with no known term, phi may have a term of
    # nonpositive valuation below a cutoff <= 0, so it is refused as such a
    # known term is
    basis = basis_one()
    ode = ODESpec(1, ((ExactScalar.of(1), 0, (2, 0)), (ExactScalar.of(1), 0, (0, 1))))
    for cutoff in (Fraction(-1), Fraction(0)):
        ev = Evaluation(ode, DulacSeries.zero(basis, cutoff))
        with pytest.raises(NonpositiveValuation):
            ev.value()
        with pytest.raises(NonpositiveValuation):
            ev.leading()
        with pytest.raises(NonpositiveValuation):
            ev.derivative((1, 0))
    # every term of a phi = O(x) lies at or above 1, so its claim holds
    assert Evaluation(ode, DulacSeries.zero(basis, 1)).value().cutoff == Fraction(1)


def test_zero_phi_counts_its_cutoff_as_low_value():
    # every term phi = O(x) may have lies at or above 1, so y0^2 is known
    # to be 0 below 2
    basis = basis_one()
    ode = ODESpec(1, ((ExactScalar.of(1), 0, (2, 0)),))
    value = Evaluation(ode, DulacSeries.zero(basis, 1)).value()
    assert value.is_zero()
    assert value.cutoff == Fraction(2)


def test_declared_degree_cap_reads_a_zero_phi_at_its_cutoff():
    # F = x known to degree 1 may omit y0^2, which gives x^(1/2) on the
    # extension x^(1/4) of phi = O(x^(1/4)): the cap is 2 * 1/4, not 2
    basis = basis_one()
    ode = ODESpec(1, ((ExactScalar.of(1), 1, (0, 0)),), declared_degree=1)
    value = Evaluation(ode, DulacSeries.zero(basis, Fraction(1, 4))).value()
    assert value.is_zero()
    assert value.cutoff == Fraction(1, 2)


def test_substitute_zero_phi_allowed():
    basis = basis_one()
    res = Evaluation(euler_ode(), DulacSeries.zero(basis)).value()
    # only the pure-x monomial survives
    assert [e.coords for e, _ in res.terms] == [(Fraction(1),)]


def test_substitute_paths_agree_random():
    basis = basis_one()
    rng = random.Random(53)
    ode = nonlinear_ode()
    for _ in range(40):
        phi = random_series(rng, basis, max_terms=3)
        if phi.terms and phi.terms[0][0].re_sign() <= 0:
            continue
        assert Evaluation(ode, phi).value() == substitute_direct(ode, phi)


# x dy + y^2 dy + x = 0 has no monomial y_j alone, so only the bound can
# set the result cutoff, and its cubic monomial multiplies products again
_NO_LINEAR_Y = ODESpec.from_json({"n": 1, "terms": [
    {"coeff": "1/1", "x": 1, "y": [0, 1]},
    {"coeff": "1/1", "x": 0, "y": [2, 1]},
    {"coeff": "1/1", "x": 1, "y": [0, 0]},
]})


# n = 2 with mixed monomials y0 y1 and y1^2 y2, so that adding a term to phi
# updates products across two variables at once
_MIXED = ODESpec.from_json({"n": 2, "terms": [
    {"coeff": "1/1", "x": 1, "y": [0, 0, 1]},
    {"coeff": "-2/1", "x": 0, "y": [1, 1, 0]},
    {"coeff": "1/3", "x": 0, "y": [0, 2, 1]},
    {"coeff": "1/1+1/1i", "x": 2, "y": [0, 0, 0]},
]})


_ORACLE_CASES = pytest.mark.parametrize(
    "basis, ode",
    [
        (basis_one(), nonlinear_ode()),
        (basis_mixed(), nonlinear_ode()),
        (basis_one(), ODESpec.from_json({**nonlinear_ode().to_json(), "degree": 2})),
        (basis_mixed(), _NO_LINEAR_Y),
        (basis_mixed(), _MIXED),
        (basis_mixed(), ODESpec.from_json({**_MIXED.to_json(), "degree": 3})),
    ],
    ids=["basis_one", "basis_mixed", "declared_degree", "no_linear_y", "mixed", "mixed_declared_degree"],
)


@_ORACLE_CASES
def test_substitute_bound_equals_truncated_oracle(basis, ode):
    # pruning at a bound must reproduce the unpruned result truncated there,
    # terms and cutoff, including bounds that remove every term of phi
    rng = random.Random(61)
    for _ in range(30):
        cutoff = rng.choice([INF, Fraction(rng.randint(2, 12), rng.randint(1, 2))])
        phi = random_series(rng, basis, max_terms=4, cutoff=cutoff)
        full = substitute_direct(ode, phi)
        for bound in (Fraction(rng.randint(0, 16), rng.randint(1, 3)), phi.val(), INF):
            assert Evaluation(ode, phi).value(bound) == full.truncate(min(full.cutoff, bound))


@_ORACLE_CASES
def test_evaluation_reads_match_oracle(basis, ode):
    # the evaluator's head and derivatives, dF/dy_j and the scaled mixed
    # ones, against the unpruned oracle for phi known to a cutoff or exactly
    rng = random.Random(67)
    for _ in range(30):
        cutoff = rng.choice([INF, Fraction(rng.randint(2, 12), rng.randint(1, 2))])
        phi = random_series(rng, basis, max_terms=4, cutoff=cutoff)
        ev = Evaluation(ode, phi)
        full = substitute_direct(ode, phi)
        for bound in (Fraction(rng.randint(0, 16), rng.randint(1, 3)), phi.val(), INF):
            assert ev.leading(bound) == full.truncate(min(full.cutoff, bound)).leading()
        for j in range(ode.n + 1):
            e_j = tuple(int(i == j) for i in range(ode.n + 1))
            assert ev.derivative(e_j) == substitute_direct(ode, phi, e_j)
        for q in multi_indices(ode.y_degree_bounds()):
            assert ev.derivative(q) == substitute_direct(ode, phi, q)


def _ode(n: int, *monomials) -> ODESpec:
    """F from (coeff, p, q) literals."""
    return ODESpec.from_json({"n": n, "terms": [
        {"coeff": c, "x": p, "y": list(q)} for c, p, q in monomials
    ]})


def test_evaluation_reads_the_cutoff_of_phi():
    # phi = -x + O(x^(3/2)) for F = delta y - 2 y - x: -x + C x^2 solves F = 0
    # for every C, so F(phi) is known only below 3/2; dF/dy0 = -2 whatever
    # phi's tail, and with y0^2 added, dF/dy0 = -2 + 2 phi is known where phi is
    basis = basis_one()
    x = basis.rational(1)
    phi = DulacSeries.monomial(x, TPoly.of(-1), Fraction(3, 2))
    probe = (("1/1", 0, (0, 1)), ("-2/1", 0, (1, 0)), ("-1/1", 1, (0, 0)))
    ev = Evaluation(_ode(1, *probe), phi)
    assert ev.value() == DulacSeries.zero(basis, Fraction(3, 2))
    assert ev.leading() is None
    assert ev.derivative((1, 0)) == DulacSeries.monomial(basis.zero(), TPoly.of(-2))
    ev = Evaluation(_ode(1, *probe, ("1/1", 0, (2, 0))), phi)
    assert ev.value() == DulacSeries.zero(basis, Fraction(3, 2))
    assert ev.derivative((1, 0)) == DulacSeries(
        basis, ((basis.zero(), TPoly.of(-2)), (x, TPoly.of(-2))), Fraction(3, 2)
    )


# shapes whose maximal q feed the value straight from the update products
_FOLDING_SHAPES = {
    # a maximal (2, 0) with p > 0
    "x_y2": _ode(1, ("1/1", 1, (0, 1)), ("-1/1", 0, (1, 0)), ("2/3", 1, (2, 0)), ("1/1", 1, (0, 0))),
    # two monomials, p = 0 and p = 2, at the maximal q = (1, 1)
    "shared_q": _ode(1, ("1/1", 0, (0, 1)), ("-2/1", 0, (1, 1)), ("1/3+1/1i", 2, (1, 1)), ("1/1", 1, (0, 0))),
    # y^3: (3, 0) is maximal, (2, 0) is kept without being a monomial of F
    "cubic": _ode(1, ("1/1", 1, (0, 1)), ("-1/1", 0, (1, 0)), ("1/2", 0, (3, 0)), ("1/1", 1, (0, 0))),
    # n = 2 with y0 y2
    "y0_y2": _ode(2, ("1/1", 0, (0, 0, 1)), ("-1/1", 1, (1, 0, 1)), ("1/1", 0, (1, 0, 0)), ("1/1", 2, (0, 0, 0))),
}

_SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def _phis(draw, basis):
    terms = []
    for _ in range(draw(st.integers(0, 3))):
        coords = draw(st.lists(st.fractions(min_value=0, max_value=3, max_denominator=3),
                               min_size=basis.dim, max_size=basis.dim))
        e = basis.exponent(coords)
        parts = draw(st.lists(st.tuples(_SMALL, _SMALL), min_size=1, max_size=2))
        c = TPoly(tuple(ExactScalar(a, b) for a, b in parts))
        if e.re_mid > 0 and not c.is_zero():
            terms.append((e, c))
    cutoff = draw(st.sampled_from([INF, Fraction(3), Fraction(9, 2)]))
    return DulacSeries(basis, tuple(terms), cutoff)


@pytest.mark.parametrize("shape", list(_FOLDING_SHAPES))
@pytest.mark.parametrize("basis", [basis_one(), basis_mixed()], ids=["basis_one", "basis_mixed"])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_evaluation_matches_direct_substitution(shape, basis, data):
    # value and every derivative(order) against the monomial-by-monomial
    # oracle, which takes its own binomial weights
    ode = _FOLDING_SHAPES[shape]
    phi = data.draw(_phis(basis))
    ev = Evaluation(ode, phi)
    value = ev.value()
    assert value == substitute_direct(ode, phi)
    for order in multi_indices(ode.y_degree_bounds()):
        assert ev.derivative(order) == substitute_direct(ode, phi, order)
    assert ev.derivative((0,) * (ode.n + 1)) == value


@pytest.mark.parametrize("entries", [["1"], ["1", "1.41421356237"]], ids=["exact", "approximate"])
def test_evaluation_general_exponent_path_matches_oracle(entries):
    # exponents with den != 1 take the exponent table's general path, a + b
    # looked up by its fields, which must find the values of the den 1 path
    # (1/2 + 3/2 is the 2 of 1 + 1); over an approximate basis the sort keys
    # are cmp_to_key objects, not tuples
    basis = ExponentBasis(entries)
    pad = [0] * (len(entries) - 1)
    terms = [(Fraction(1, 2), "1/1"), (Fraction(1), "-2/1"), (Fraction(3, 2), "1/3+1/1i"), (Fraction(2), "1/1")]
    phi = DulacSeries(basis, tuple((basis.exponent([a] + pad), TPoly.of(c)) for a, c in terms), Fraction(9, 2))
    assert isinstance(phi.terms[0][0].key, tuple) == basis.exact
    for ode in (nonlinear_ode(), _FOLDING_SHAPES["cubic"], _MIXED):
        ev = Evaluation(ode, phi)
        full = substitute_direct(ode, phi)
        assert ev.value() == full
        assert ev.leading() == full.leading()
        for order in multi_indices(ode.y_degree_bounds()):
            assert ev.derivative(order) == substitute_direct(ode, phi, order)


def _linearization_or_error(ode, phi):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DerivativeYnZeroWarning)
        try:
            return extract_linearization(ode, phi)
        except DulacError as exc:
            return type(exc), str(exc)


@_ORACLE_CASES
def test_linearization_from_grown_evaluation_matches_series(basis, ode):
    # an evaluator fed term by term, as extend feeds it, gives the
    # linearization of the series holding the same terms
    rng = random.Random(71)
    for _ in range(30):
        phi = random_series(rng, basis, max_terms=4)
        ev = Evaluation(ode, DulacSeries.zero(basis))
        for e, c in phi.terms:
            ev.add(e, c)
        assert DulacSeries(basis, tuple(ev.terms), INF) == phi
        assert _linearization_or_error(ode, ev) == _linearization_or_error(ode, phi)


def test_dependent_basis_substitution_raises():
    # over the dependent basis 1, 2 the exponents (2, 0) and (0, 1) have
    # equal keys but other coordinates; producing both must raise, whether
    # as the value's head or above it
    basis = ExponentBasis(["1", "2/1"])
    x, x2 = basis.exponent([1, 0]), basis.exponent([0, 1])
    head_tie = ODESpec.from_json({"n": 1, "terms": [
        {"coeff": "1/1", "x": 0, "y": [1, 0]},
        {"coeff": "1/1", "x": 0, "y": [0, 1]},
        {"coeff": "1/1", "x": 2, "y": [0, 0]},
    ]})
    phi = DulacSeries.monomial(x2, TPoly.ONE)
    with pytest.raises(UndecidableComparison):
        Evaluation(head_tie, phi).value()
    with pytest.raises(UndecidableComparison):
        Evaluation(head_tie, phi).leading(INF)
    # at x + x^(0,1) both lie above the head 2x
    phi = DulacSeries(basis, ((x, TPoly.ONE), (x2, TPoly.ONE)), INF)
    with pytest.raises(UndecidableComparison):
        Evaluation(head_tie, phi).value()
    # in extend, -y and y^2 at x + 2 x^(0,1) give x^(0,1) and x^(2,0)
    phi = DulacSeries(basis, ((x, TPoly.ONE), (x2, TPoly.of(2))), INF)
    with pytest.raises(UndecidableComparison):
        extend(nonlinear_ode(), phi, 5)


def test_leading_finds_a_tie_below_cancelled_entries():
    # over the dependent basis 1, 2, 3, 6 four coordinate vectors have the
    # value 6; F = y makes the value phi itself, so terms can be cancelled
    # one by one and leave live ties below dead heap entries
    basis = ExponentBasis(["1", "2/1", "3/1", "6/1"])
    ev = Evaluation(ODESpec(1, ((ExactScalar.of(1), 0, (1, 0)),)), DulacSeries.zero(basis))
    ties = [basis.exponent(c) for c in ([0, 0, 0, 1], [0, 0, 2, 0], [0, 3, 0, 0], [6, 0, 0, 0])]
    for e in ties:
        ev.add(e, TPoly.ONE)
    for e in ties[1:3]:
        ev.add(e, -TPoly.ONE)
    with pytest.raises(UndecidableComparison):
        ev.leading()


@pytest.mark.parametrize("den", [1, 2])
def test_leading_meets_a_cancelled_value_again_as_one_exponent(den):
    # F = x y makes the value x phi: x^(1 + 1/den) enters, cancels and
    # enters again, so two heap entries hold its value; the exponent table
    # gives both the same Exponent, on the den 1 path and the general one
    # alike, so they are no tie of two coordinate vectors
    basis = basis_one()
    ev = Evaluation(ODESpec(1, ((ExactScalar.of(1), 1, (1, 0)),)), DulacSeries.zero(basis))
    e = basis.exponent([Fraction(1, den)])
    for c in (TPoly.ONE, -TPoly.ONE, TPoly.of(3)):
        ev.add(e, c)
    assert ev.leading() == (e + basis.rational(1), TPoly.of(3))


def test_declared_degree_caps_cutoff():
    # truncated Taylor data: result only trusted up to (D+1)*min(1, val phi)
    ode = ODESpec(
        1,
        (
            (ExactScalar.of(1), 1, (0, 0)),
            (ExactScalar.of(1), 0, (0, 1)),
        ),
        declared_degree=2,
    )
    basis = basis_one()
    res = Evaluation(ode, x_prefix(basis)).value()
    assert res.cutoff == Fraction(3)
    half = DulacSeries.monomial(basis.rational(Fraction(1, 2)), TPoly.ONE)
    res2 = Evaluation(ode, half).value()
    assert res2.cutoff == Fraction(3, 2)


def test_json_roundtrip():
    ode = nonlinear_ode()
    again = ODESpec.from_json(ode.to_json())
    assert again == ode
    capped = ODESpec(1, ((ExactScalar.of(1), 0, (0, 1)),), declared_degree=3)
    assert ODESpec.from_json(capped.to_json()).declared_degree == 3


def test_y_degree_bounds():
    assert nonlinear_ode().y_degree_bounds() == (2, 1)
    assert euler_ode().y_degree_bounds() == (1, 1)


def _extend_in_time(n: int, cutoff: int, limit: float) -> None:
    """extend sum_j delta^j y + x = 0 at order n, whose solution is
    -x / (n + 1), in under limit seconds."""
    one = ExactScalar.of(1)
    units = [tuple(int(i == j) for i in range(n + 1)) for j in range(n + 1)]
    F = ODESpec(n, tuple((one, 0, u) for u in units) + ((one, 1, (0,) * (n + 1)),))
    t0 = time.perf_counter()
    state = extend(F, DulacSeries.zero(basis_one()), Fraction(cutoff))
    elapsed = time.perf_counter() - t0
    assert state.solution.terms == ((basis_one().rational(1), TPoly.of(Fraction(-1, n + 1))),)
    assert state.residual.is_zero()
    assert elapsed < limit, elapsed


def test_high_order_linear_setup_is_not_cubic():
    # at order 300: the set-up of the evaluation and each derivative compare
    # vectors on their nonzero entries only, so the 301 unit vectors cost no
    # 301^3 entry comparisons
    _extend_in_time(300, 3, 1.5)


def test_high_order_derivatives_are_not_quadratic():
    # at order 600: derivative(e_j) scans only the monomials with y_j, so the
    # 2 * 601 derivatives of the two linearizations cost no 601^2 monomial
    # scans; the set-up steps through nonzero entries only
    _extend_in_time(600, 4, 1.0)
