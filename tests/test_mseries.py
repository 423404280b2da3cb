"""Multivariate tail image: transport, derivation, graded norms, estimates."""

import json
import operator
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dulac import cli, norms, numeric
from dulac.errors import (
    BasisMismatch,
    CutoffIncrease,
    ExactValueRequired,
    ExponentOutsideSemigroup,
    PreconditionViolated,
    SchemaError,
    UndecidableComparison,
)
from dulac.exponents import ExponentBasis
from dulac.mseries import MSeries, fit_degree_K, iota, iota_inv
from dulac.norms import NormParams, check_lemma5, check_lemma6, h_norm, majorant_bound
from dulac.numeric import poly_norm
from dulac.semigroup import validate_generators
from dulac.series import INF, DulacSeries
from dulac.solver import extend
from dulac.tpoly import TPoly

from .util import (
    DATA,
    basis_mixed,
    basis_one,
    euler_ode,
    float_counts,
    h_norm_oracle,
    lemma5_oracle,
    lemma6_oracle,
    majorant_oracle,
    norm_draws_oracle,
    random_poly,
)

P0 = dict(R=2, s=1, Kcal=1)


def _gens_one():
    basis = basis_one()
    return validate_generators([basis.rational(1)])


def _gens_mixed():
    basis = basis_mixed()
    return validate_generators(
        [basis.exponent([Fraction(1, 2), Fraction(0)]), basis.exponent([Fraction(0), Fraction(1)])]
    )


def _ms(gens, terms, cutoff=INF, base=None):
    base = gens.basis.zero() if base is None else base
    return MSeries(gens, base, terms, cutoff)


def _random_mseries(rng, gens, max_terms=4):
    terms = [
        (tuple(rng.randint(0, 3) for _ in range(gens.kappa)), random_poly(rng, 2))
        for _ in range(rng.randint(0, max_terms))
    ]
    terms = [(m, c) for m, c in terms if any(m)]
    return _ms(gens, terms)


# -- construction ----------------------------------------------------------


def test_zero_index_rejected():
    g = _gens_one()
    with pytest.raises(ValueError):
        _ms(g, (((0,), TPoly.ONE),))
    with pytest.raises(ValueError):
        _ms(g, (((-1,), TPoly.ONE),))


@pytest.mark.parametrize(
    "gens, m", [(_gens_one, (1, 2)), (_gens_mixed, (1,)), (_gens_mixed, (1, 0, 0))], ids=["long", "short", "long2"]
)
def test_multi_index_of_wrong_length_rejected(gens, m):
    # the constructor checks the length before it sorts on Re<m,r>
    with pytest.raises(ValueError, match="kappa"):
        _ms(gens(), ((m, TPoly.ONE),))


def test_canonical_merge_sort_drop():
    g = _gens_mixed()
    terms = (
        ((0, 1), TPoly.ONE),       # Re 1
        ((1, 0), TPoly.ONE),       # Re 1/2
        ((0, 1), -TPoly.ONE),      # cancels the first
        ((4, 0), TPoly.ONE),       # Re 2, beyond cutoff
    )
    ms = _ms(g, terms, cutoff=2)
    assert ms.terms == (((1, 0), TPoly.ONE),)
    assert ms.low() == Fraction(1, 2)


def test_norm_params_validation():
    NormParams(**P0)
    with pytest.raises(ValueError):
        NormParams(R=1, s=1, Kcal=0)
    with pytest.raises(ValueError):
        NormParams(R=2, s=0, Kcal=0)
    with pytest.raises(ValueError):
        NormParams(R=2, s=1, Kcal=-1)
    with pytest.raises(ValueError):
        NormParams(R=2, s=1, Kcal=0, j=-1)


def test_norm_params_read_floats_as_poly_norm_does():
    p = NormParams(R=2.1, s=0.1, Kcal=0.5)
    assert (p.R, p.s, p.Kcal) == (Fraction(21, 10), Fraction(1, 10), Fraction(1, 2))
    assert p == NormParams(R=Fraction(21, 10), s=Fraction(1, 10), Kcal=Fraction(1, 2))
    assert poly_norm(TPoly.T, 2.1) == poly_norm(TPoly.T, p.R)
    for bad in (float("inf"), float("nan")):
        for field in ("R", "s", "Kcal"):
            with pytest.raises(ValueError):
                NormParams(**{**P0, field: bad})


# -- arithmetic --------------------------------------------------------------


def test_mseries_ring_ops():
    g = _gens_one()
    a = _ms(g, (((1,), TPoly.ONE),))
    b = _ms(g, (((2,), TPoly.of(3)),))
    assert (a + b).terms == (((1,), TPoly.ONE), ((2,), TPoly.of(3)))
    assert (a - a).is_zero()
    prod = a * b
    assert prod.terms == (((3,), TPoly.of(3)),)


def test_mseries_mul_cutoff_rule():
    g = _gens_one()
    a = _ms(g, (((1,), TPoly.ONE),), cutoff=5)
    b = _ms(g, (((2,), TPoly.ONE),), cutoff=4)
    assert (a * b).cutoff == Fraction(5)  # min(5 + val b, 4 + val a) = min(7, 5)


def test_mseries_mul_by_zero_counts_its_cutoff_as_low_value():
    # every term a zero factor may have lies at or above its cutoff
    g = _gens_one()
    a = _ms(g, (((1,), TPoly.ONE),), cutoff=5)
    z = _ms(g, (), cutoff=2)
    assert (a * z).cutoff == (z * a).cutoff == Fraction(3)  # min(5 + 2, 2 + 1)
    assert (z * z).cutoff == Fraction(4)


def test_infinite_cutoff_stays_infinite_past_the_double_range():
    # a generator of 10^400: inf + its re_low would overflow a float
    huge = Fraction(10**400)
    g = validate_generators([basis_one().rational(huge)])
    a = _ms(g, (((1,), TPoly.ONE),))
    assert a.shift_m((1,)).cutoff == INF
    b = _ms(g, (((1,), TPoly.ONE),), cutoff=3 * huge)
    assert (a * b).cutoff == (b * a).cutoff == 4 * huge  # min(inf + huge, 3 huge + huge)
    assert (a * b).terms == (((2,), TPoly.ONE),)


def _gens_approx():
    basis = ExponentBasis(["1", "1.41421356237"])
    return validate_generators([basis.exponent([1, 0]), basis.exponent([0, 1])])


def test_approximate_generators_move_and_cut_cutoffs_by_lower_endpoints():
    # "1.41421356237" is sqrt 2 to within 1/(2 10^11), so X^(0,1) may lift
    # a tail term at the cutoff by that much less than the midpoint
    gens = _gens_approx()
    root = gens.m_exponent((0, 1))
    rad = Fraction(1, 2 * 10**11)
    assert root.re_low == Fraction("1.41421356237") - rad
    g = _ms(gens, (((1, 0), TPoly.ONE),), cutoff=3)
    assert g.shift_m((0, 1)).cutoff == 3 + root.re_low
    assert g.shift_m((0, 1)).terms == (((1, 1), TPoly.ONE),)
    assert (g * _ms(gens, (((0, 1), TPoly.ONE),))).cutoff == 3 + root.re_low
    # a term whose real part encloses the cutoff is neither kept nor dropped
    with pytest.raises(UndecidableComparison):
        _ms(gens, (((0, 1), TPoly.ONE),), cutoff=Fraction("1.41421356237"))
    # X^(1,0) known below 1 + rad, shifted by X^(0,1): its Re encloses the
    # new cutoff 1 + 1.41421356237, so the shift cannot keep or drop it
    with pytest.raises(UndecidableComparison):
        _ms(gens, (((1, 0), TPoly.ONE),), cutoff=1 + rad).shift_m((0, 1))


def test_low_value_is_the_least_lower_endpoint_over_approximate_generators():
    # over ["1", "1.3"], 7 r_2 = 9.1 +- 0.35 is certified below 10 r_1 = 10,
    # and the first term's lower endpoint 8.75 bounds every term, so a tail
    # term of O(X^(1,0)) times it may lie at 9.75, below 1 + 10
    basis = ExponentBasis(["1", "1.3"])
    gens = validate_generators([basis.exponent([1, 0]), basis.exponent([0, 1])])
    g = _ms(gens, (((10, 0), TPoly.ONE), ((0, 7), TPoly.ONE)), cutoff=20)
    assert [m for m, _ in g.terms] == [(0, 7), (10, 0)]
    assert g.low() == Fraction(35, 4)
    assert (g * _ms(gens, (), cutoff=1)).cutoff == Fraction(39, 4)
    # 9 r_1 = 9 lies inside 9.1 +- 0.35: no certified order, so no series
    with pytest.raises(UndecidableComparison, match=r"sign of re\(-9, 7\) undecidable"):
        _ms(gens, (((9, 0), TPoly.ONE), ((0, 7), TPoly.ONE)), cutoff=20)


def test_mseries_gens_mismatch():
    a = _ms(_gens_one(), (((1,), TPoly.ONE),))
    b = _ms(_gens_mixed(), (((1, 0), TPoly.ONE),))
    with pytest.raises(BasisMismatch):
        a + b


def test_mseries_arithmetic_rejects_mixed_base_exponents():
    # the result would keep the left operand's base: at level 1 with
    # Kcal = 1/2 the norm of f1 + f2 read 3.0 and that of f2 + f1 read 13.0
    g = _gens_one()
    f1 = _ms(g, (((1,), TPoly.ONE),), base=g.basis.zero())
    f2 = _ms(g, (((1,), TPoly.ONE),), base=g.basis.rational(5))
    for op in (operator.add, operator.sub, operator.mul):
        for x, y in ((f1, f2), (f2, f1)):
            with pytest.raises(BasisMismatch):
                op(x, y)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(gens_of=st.sampled_from([_gens_one, _gens_mixed]), seed=st.integers(0, 2**32 - 1),
       cutoff=st.sampled_from([INF, Fraction(5, 2), Fraction(4)]), lvec=st.lists(st.integers(0, 3), min_size=2))
def test_trusted_results_equal_canonical_construction(gens_of, seed, cutoff, lvec):
    """Shift, polynomial product, negation and product skip
    re-canonicalization; each, and the Euler derivation, equals the fully
    canonicalized series."""
    gens, rng = gens_of(), random.Random(seed)
    g, h = _random_mseries(rng, gens).truncate(cutoff), _random_mseries(rng, gens)
    l, a = tuple(lvec[: gens.kappa]), rng.choice([TPoly.ZERO, random_poly(rng, 2)])
    shifted = tuple((tuple(x + y for x, y in zip(m, l)), c) for m, c in g.terms)
    assert g.shift_m(l) == MSeries(gens, g.lambda_base, shifted, g.cutoff + gens.m_exponent(l).re_low)
    assert g.mul_poly(a) == MSeries(gens, g.lambda_base, tuple((m, c * a) for m, c in g.terms), g.cutoff)
    assert -g == MSeries(gens, g.lambda_base, tuple((m, -c) for m, c in g.terms), g.cutoff)
    out = tuple((m, c.shift_apply(gens.m_exponent(m).value())) for m, c in g.terms)
    assert g.hat_delta() == MSeries(gens, g.lambda_base, out, g.cutoff)
    prods = tuple(
        (tuple(x + y for x, y in zip(m1, m2)), c1 * c2) for m1, c1 in g.terms for m2, c2 in h.terms
    )
    cut = min(g.cutoff + h.low(), h.cutoff + g.low())
    assert g * h == MSeries(gens, g.lambda_base, prods, cut)


def test_shift_by_an_invalid_index_raises_as_construction_does():
    g = _ms(_gens_mixed(), (((1, 0), TPoly.ONE), ((0, 2), TPoly.T)))
    one = _ms(_gens_one(), (((1,), TPoly.ONE),), cutoff=4)
    # X^l multiplies only for l in Z^kappa_+, so a series without terms raises too
    empty = _ms(_gens_one(), (), cutoff=4)
    for g, l in ((g, (-1, 0)), (g, (0, -1)), (g, (0, -2)), (g, (1,)), (g, (1, 0, 0)), (one, (1, 5)),
                 (empty, (-1,))):
        with pytest.raises(ValueError, match="MSeries: "):
            g.shift_m(l)


_NONINTEGRAL, _IDS = [(1.5,), (0.7,), (Fraction(5, 2),), (Fraction(1, 3),)], ["1.5", "0.7", "5/2", "1/3"]


@pytest.mark.parametrize("m", _NONINTEGRAL, ids=_IDS)
def test_construction_refuses_a_nonintegral_multi_index(m):
    # 1.5 is not read as 1, nor 5/2 as 2; an integral 2.0 or Fraction(2) is 2
    with pytest.raises(ValueError, match=r"MSeries: multi-index .* is not kappa = 1 nonnegative integers"):
        _ms(_gens_one(), ((m, TPoly.ONE),))
    assert _ms(_gens_one(), (((2.0,), TPoly.ONE), ((Fraction(1),), TPoly.T))).terms == (
        ((1,), TPoly.T), ((2,), TPoly.ONE))


@pytest.mark.parametrize("l", _NONINTEGRAL, ids=_IDS)
def test_shift_refuses_a_nonintegral_index(l):
    # a shift by (0.7,) is no shift by (0,)
    g = _ms(_gens_one(), (((1,), TPoly.ONE),), cutoff=4)
    with pytest.raises(ValueError, match=r"MSeries: shift index .* is not kappa = 1 nonnegative integers"):
        g.shift_m(l)
    assert g.shift_m((Fraction(2),)) == g.shift_m((2,))


@pytest.mark.parametrize("l", _NONINTEGRAL, ids=_IDS)
def test_lemma5_refuses_a_nonintegral_shift(l):
    ms = _ms(_gens_one(), (((1,), TPoly.ONE),))
    p = NormParams(R=2, s=1, Kcal=1, j=0)
    with pytest.raises(PreconditionViolated, match="is not kappa = 1 nonnegative integers"):
        check_lemma5(TPoly.ONE, l, 0, ms, p)
    assert check_lemma5(TPoly.ONE, (1.0,), 0, ms, p) == check_lemma5(TPoly.ONE, (1,), 0, ms, p)


def test_hat_delta():
    g = _gens_one()
    ms = _ms(g, (((1,), TPoly.of(0, 1)),))  # t X
    out = ms.hat_delta()
    # (<m,r> + d/dt) t = t + 1 at <m,r> = 1
    assert out.terms == (((1,), TPoly.of(1, 1)),)


def test_base_delta_adds_lambda_base():
    g = _gens_one()
    base = g.basis.rational(2)
    ms = MSeries(g, base, (((1,), TPoly.ONE),), INF)
    out = ms.base_delta()
    # (lambda_base + <m,r>) * 1 = 3
    assert out.terms == (((1,), TPoly.of(3)),)


def test_derivations_refuse_an_approximate_value():
    # over ["1", "1.41421356237"] with r = sqrt 2: lambda_base = -sqrt 2 is
    # refused although lambda_base + <m,r> = 0 at m = (1,) is exact
    basis = ExponentBasis(["1", "1.41421356237"])
    g = validate_generators([basis.exponent([0, 1])])
    ms = MSeries(g, basis.exponent([0, -1]), (((1,), TPoly.ONE),), INF)
    for derivation in (ms.base_delta, ms.hat_delta):
        with pytest.raises(ExactValueRequired, match="'1.41421356237' is approximate"):
            derivation()
    # exact data over the same basis pass
    exact = MSeries(validate_generators([basis.exponent([1, 0])]), basis.rational(2), (((1,), TPoly.T),), INF)
    assert exact.base_delta().terms == (((1,), TPoly.of(1, 3)),)


def test_shift_and_truncate():
    g = _gens_one()
    ms = _ms(g, (((1,), TPoly.ONE),), cutoff=3)
    sh = ms.shift_m((2,))
    assert sh.terms[0][0] == (3,)
    assert sh.cutoff == Fraction(5)
    with pytest.raises(CutoffIncrease):
        ms.truncate(4)


def test_json_roundtrip():
    g = _gens_mixed()
    rng = random.Random(71)
    ms = _random_mseries(rng, g)
    back = MSeries.from_json(ms.to_json(), g, ms.lambda_base)
    assert back == ms
    clipped = ms.truncate(2) if ms.cutoff == INF else ms
    back2 = MSeries.from_json(clipped.to_json(), g, ms.lambda_base)
    assert back2 == clipped


@pytest.mark.parametrize(
    "cutoff, written",
    [(Fraction(5, 7), "5/7"), (Fraction(4, 3), "4/3"), (Fraction(4), 4.0), (Fraction(7, 2), 3.5)],
    ids=["5/7", "4/3", "integer", "7/2"],
)
def test_json_roundtrip_keeps_exact_cutoff(cutoff, written):
    g = _gens_one()
    ms = _ms(g, (((1,), TPoly.ONE), ((2,), TPoly.T)), cutoff=cutoff)
    data = json.loads(json.dumps(ms.to_json()))
    assert data["cutoff"] == written
    back = MSeries.from_json(data, g, ms.lambda_base)
    assert back.cutoff == cutoff
    assert back == ms


def test_float_cutoff_reads_as_its_decimal():
    g = _gens_one()
    ms = _ms(g, (((1,), TPoly.ONE),), cutoff=0.1)
    assert ms.cutoff == Fraction(1, 10)
    assert _ms(g, (((1,), TPoly.ONE),), cutoff=3).truncate(0.1).cutoff == Fraction(1, 10)


@pytest.mark.parametrize(
    "data, field",
    [({"terms": [item]}, field) for item, field in [
        ({"m": [1.5], "poly": ["1/1"]}, "terms[0].m"), ({"m": [True], "poly": ["1/1"]}, "terms[0].m"),
        ({"m": ["1"], "poly": ["1/1"]}, "terms[0].m"), ({"m": 1, "poly": ["1/1"]}, "terms[0].m"),
        ({"m": [1, 2], "poly": ["1/1"]}, "terms[0].m"), ({"m": [-1], "poly": ["1/1"]}, "terms[0].m"),
        ({"poly": ["1/1"]}, "terms[0].m"), ({"m": [1]}, "terms[0].poly"),
        ({"m": [1], "poly": [1.5]}, "terms[0].poly"), ([1], "terms[0].m")]]
    + [([], "expected a JSON object"), ({"terms": {}}, "terms must be a list")],
    ids=["float_m", "bool_m", "string_m", "scalar_m", "long_m", "negative_m", "missing_m", "missing_poly",
         "float_poly", "non_object", "list_document", "object_terms"],
)
def test_from_json_rejects_malformed_terms(data, field):
    g = _gens_one()
    with pytest.raises(SchemaError) as exc:
        MSeries.from_json(data, g, g.basis.zero())
    assert f"mseries: {field}" in str(exc.value)


@pytest.mark.parametrize("cutoff", ["5/0", "five", "1.5", False])
def test_from_json_rejects_malformed_cutoff(cutoff):
    g = _gens_one()
    ms = _ms(g, (((1,), TPoly.ONE),), cutoff=3)
    with pytest.raises(SchemaError, match="cutoff"):
        MSeries.from_json({"cutoff": cutoff, "terms": []}, g, ms.lambda_base)


# -- transport ----------------------------------------------------------------


def test_iota_examples():
    g = _gens_one()
    basis = g.basis
    f = DulacSeries(
        basis,
        (
            (basis.rational(1), TPoly.of(0, 1)),  # t x
            (basis.rational(2), TPoly.ONE),       # x^2
        ),
        INF,
    )
    ms = iota(f, g)
    assert ms.terms == (((1,), TPoly.of(0, 1)), ((2,), TPoly.ONE))
    assert iota_inv(ms) == f


def test_iota_outsider():
    g = _gens_one()
    basis = g.basis
    f = DulacSeries(basis, ((basis.rational(Fraction(3, 2)), TPoly.ONE),), INF)
    with pytest.raises(ExponentOutsideSemigroup):
        iota(f, g)


def test_iota_roundtrip_random():
    rng = random.Random(73)
    for g in (_gens_one(), _gens_mixed()):
        for _ in range(50):
            ms = _random_mseries(rng, g)
            assert iota(iota_inv(ms), g) == ms


def test_iota_commutes_with_delta():
    # hat_delta on the image equals the Euler derivation upstairs
    rng = random.Random(79)
    for g in (_gens_one(), _gens_mixed()):
        for _ in range(50):
            ms = _random_mseries(rng, g)
            assert iota(iota_inv(ms).delta(), g) == ms.hat_delta()


def test_iota_is_ring_map():
    rng = random.Random(83)
    g = _gens_mixed()
    for _ in range(50):
        a = _random_mseries(rng, g)
        b = _random_mseries(rng, g)
        assert iota_inv(a * b) == iota_inv(a) * iota_inv(b)
        assert iota_inv(a + b) == iota_inv(a) + iota_inv(b)


def test_fit_degree_K():
    g = _gens_one()
    ms = _ms(g, (((2,), TPoly.of(0, 0, 0, 1)),))  # deg 3 at |m| = 2
    assert fit_degree_K(ms) == Fraction(3, 2)
    assert fit_degree_K(_ms(g, (((4,), TPoly.ONE),))) == Fraction(0)


# -- graded norms ---------------------------------------------------------------


def test_h_norm_worked_example():
    # single term C_1 = 1 at lambda_base = 2, Kcal = 0, s = 1:
    # j = 0 gives 1/Gamma(1) = 1; j = 1 multiplies by the weight |2 + 1| = 3
    g = _gens_one()
    base = g.basis.rational(2)
    ms = MSeries(g, base, (((1,), TPoly.ONE),), INF)
    p = NormParams(R=2, s=1, Kcal=0)
    assert abs(h_norm(ms, p) - 1) < 1e-12
    assert abs(h_norm(ms, p, level=1) - 3) < 1e-12
    # a nonzero Kcal enters the weight: (3 + 1)^1 = 4
    assert abs(h_norm(ms, NormParams(R=2, s=1, Kcal=1, j=1)) - 4) < 1e-12


def test_h_norm_empty_is_zero():
    g = _gens_one()
    p = NormParams(**P0)
    assert h_norm(_ms(g, ()), p) == 0


def test_h_norm_euler_image():
    basis = basis_one()
    state = extend(euler_ode(), DulacSeries.zero(basis), 9)
    g = validate_generators([basis.rational(1)])
    ms = iota(state.solution, g)
    p = NormParams(R=2, s=1, Kcal=1, j=0)
    # rho_k = (k-1)!/Gamma(k) = 1 for k = 1..8
    assert abs(h_norm(ms, p) - 8) < 1e-9
    p1 = NormParams(R=2, s=1, Kcal=1, j=1)
    # weights (k + k): sum 2k for k = 1..8 is 72
    assert abs(h_norm(ms, p1) - 72) < 1e-8


def test_h_norm_monotone_in_level():
    # every weight is |<m,r>| + 2|m| >= 2 here, so levels are ordered
    rng = random.Random(89)
    g = _gens_mixed()
    p = NormParams(R=2, s=1, Kcal=2)
    for _ in range(30):
        ms = _random_mseries(rng, g)
        n0 = h_norm(ms, p, level=0)
        n1 = h_norm(ms, p, level=1)
        n2 = h_norm(ms, p, level=2)
        assert n0 <= n1 * (1 + 1e-25)
        assert n1 <= n2 * (1 + 1e-25)


# -- estimate checks ---------------------------------------------------------------


def test_lemma6_single_terms_tight():
    g = _gens_one()
    p = NormParams(**P0)
    a = _ms(g, (((1,), TPoly.ONE),))
    rep = check_lemma6(a, a, p)
    # C_used = Gamma(1)^2 / Gamma(2) = 1 and lhs = 1/Gamma(2) = 1 = rhs
    assert rep.passed and rep.splits == 1
    assert abs(rep.C_used - 1) < 1e-12
    assert abs(rep.lhs - 1) < 1e-12
    assert abs(rep.lhs - rep.rhs) <= rep.rhs * 1e-20
    b = _ms(g, (((2,), TPoly.ONE),))
    rep2 = check_lemma6(a, b, p)
    # Gamma(1)Gamma(2)/Gamma(3) = 1/2 on both sides
    assert rep2.passed
    assert abs(rep2.C_used - mpmath.mpf(1) / 2) < 1e-12
    assert abs(rep2.lhs - rep2.rhs) <= rep2.rhs * 1e-20


def test_lemma6_euler_image():
    basis = basis_one()
    state = extend(euler_ode(), DulacSeries.zero(basis), 6)
    g = validate_generators([basis.rational(1)])
    ms = iota(state.solution, g)
    rep = check_lemma6(ms, ms, NormParams(**P0))
    assert rep.passed
    # the (1, 1) split realizes Gamma(1)^2 / Gamma(2) = 1, the maximum
    assert abs(rep.C_used - 1) < 1e-12
    assert rep.splits == len(ms.terms) ** 2


def test_lemma6_zero_factor():
    g = _gens_one()
    p = NormParams(**P0)
    rep = check_lemma6(_ms(g, ()), _ms(g, (((1,), TPoly.ONE),)), p)
    assert rep.passed and rep.lhs == 0 and rep.splits == 0


def test_lemma6_random():
    rng = random.Random(97)
    for g in (_gens_one(), _gens_mixed()):
        p = NormParams(**P0)
        for _ in range(40):
            a = _random_mseries(rng, g)
            b = _random_mseries(rng, g)
            assert check_lemma6(a, b, p).passed


def test_lemma5_worked_example():
    # a = 1, l = (1), j = 1, level 0, g = X: operator sends X to (2+d/dt)... X^2
    g = _gens_one()
    base = g.basis.rational(1)
    ms = MSeries(g, base, (((1,), TPoly.ONE),), INF)
    p = NormParams(R=2, s=1, Kcal=1, j=0)
    rep = check_lemma5(TPoly.ONE, (1,), 1, ms, p)
    assert rep.passed
    # lhs: term (2 + d/dt) 1 = 2 at m = (2): norm 2 / Gamma(2) = 2
    assert abs(rep.lhs - 2) < 1e-12
    # A_tilde = 1 * Gamma(1)/Gamma(2) * w^1 with w = |1+1| + 1 = 3
    assert abs(rep.A_tilde - 3) < 1e-12
    assert abs(rep.bound - 3) < 1e-12


def test_lemma5_boundary_slope_gate_passes():
    # Re<l,r> = (j - level) s exactly: allowed
    g = _gens_one()
    ms = _ms(g, (((1,), TPoly.ONE),))
    p = NormParams(R=2, s=1, Kcal=1, j=0)
    rep = check_lemma5(TPoly.ONE, (1,), 1, ms, p)
    assert rep.passed


def test_lemma5_gate_rejects():
    g = _gens_one()
    ms = _ms(g, (((1,), TPoly.ONE),))
    p = NormParams(R=2, s=1, Kcal=1, j=0)
    # j = 1 needs Re<l,r> >= s = 1, but l = 0
    with pytest.raises(PreconditionViolated):
        check_lemma5(TPoly.ONE, (0,), 1, ms, p)
    # deg a > Kcal |l|
    with pytest.raises(PreconditionViolated):
        check_lemma5(TPoly.of(0, 0, 1), (1,), 0, ms, p)
    # negative shift
    with pytest.raises(PreconditionViolated):
        check_lemma5(TPoly.ONE, (-1,), 0, ms, p)
    # a shift index longer than kappa is not read as its first entries
    with pytest.raises(PreconditionViolated, match="kappa"):
        check_lemma5(TPoly.ONE, (1, 5), 0, ms, NormParams(2, 1, 2))
    # g outside the level space: deg C_m = 2 > Kcal |m| = 1
    bad = _ms(g, (((1,), TPoly.of(0, 0, 1)),))
    with pytest.raises(PreconditionViolated):
        check_lemma5(TPoly.ONE, (1,), 0, bad, p)


def test_lemma5_euler_image():
    basis = basis_one()
    state = extend(euler_ode(), DulacSeries.zero(basis), 5)
    g = validate_generators([basis.rational(1)])
    ms = iota(state.solution, g)
    base = g.basis.rational(1)
    ms = MSeries(g, base, ms.terms, ms.cutoff)
    p = NormParams(R=2, s=1, Kcal=1, j=1)
    rep = check_lemma5(TPoly.of(0, 1), (1,), 1, ms, p)
    assert rep.passed


def test_lemma5_random():
    rng = random.Random(101)
    g = _gens_one()
    for _ in range(40):
        Kcal = rng.randint(1, 3)
        level = rng.randint(0, 2)
        j = rng.randint(0, 2)
        p = NormParams(R=Fraction(rng.randint(3, 8), 2), s=1, Kcal=Kcal, j=level)
        terms = []
        for _ in range(rng.randint(1, 3)):
            m = (rng.randint(1, 3),)
            terms.append((m, random_poly(rng, rng.randint(0, Kcal * m[0]))))
        ms = _ms(g, terms)
        if ms.is_zero():
            continue
        # l clears the slope gate; degrees stay inside the level space
        l = (max(j - level, 0) + rng.randint(0, 1),)
        a = random_poly(rng, rng.randint(0, Kcal * l[0]) if l[0] else 0)
        rep = check_lemma5(a, l, j, ms, p)
        assert rep.passed


# -- majorant ----------------------------------------------------------------------


def test_majorant_worked_examples():
    g = _gens_one()
    p = NormParams(**P0)
    # pure-x term: rho^1 / Gamma(1) = 1/2
    out = majorant_bound({((1,), (0,)): TPoly.ONE}, Fraction(1, 2), [1], g, p)
    assert abs(out - mpmath.mpf(1) / 2) < 1e-12
    # linear-in-u term: rho * C * n with C = 1, n = 9/8
    coeffs = {((1,), (1,)): TPoly.ONE}
    out2 = majorant_bound(coeffs, Fraction(1, 2), [Fraction(9, 8)], g, p)
    assert abs(out2 - mpmath.mpf(9) / 16) < 1e-12


def test_majorant_zero_radius():
    # rho = 0 with no pure-q term: every contribution carries rho^|pm|
    g = _gens_one()
    p = NormParams(**P0)
    coeffs = {((1,), (0,)): TPoly.ONE, ((2,), (1,)): TPoly.of(0, 1)}
    assert majorant_bound(coeffs, 0, [5], g, p) == 0


def test_majorant_rejects_constant_term():
    g = _gens_one()
    p = NormParams(**P0)
    with pytest.raises(ValueError):
        majorant_bound({((0,), (0,)): TPoly.ONE}, 1, [1], g, p)


def test_majorant_pure_q_term_keeps_gamma_free():
    g = _gens_one()
    p = NormParams(**P0)
    # pm = 0: no Gamma division, bound is ||a||_R * n^2
    out = majorant_bound({((0,), (2,)): TPoly.of(3)}, Fraction(1, 2), [2], g, p)
    assert abs(out - 12) < 1e-12


def test_majorant_monotone():
    g = _gens_one()
    p = NormParams(**P0)
    coeffs = {
        ((1,), (0,)): TPoly.ONE,
        ((1,), (1,)): TPoly.of(0, 1),
        ((0,), (2,)): TPoly.of(Fraction(1, 3)),
    }
    lo = majorant_bound(coeffs, Fraction(1, 4), [Fraction(1, 2)], g, p)
    hi = majorant_bound(coeffs, Fraction(1, 2), [Fraction(3, 4)], g, p)
    assert lo < hi


# -- per-multi-index norm constants ----------------------------------------------


def test_norm_constants_match_memo_free_oracle():
    """Interleaved calls over the same m with different generators, base
    exponents and norm parameters each equal an oracle that recomputes every
    Gamma value and weight, so no cached constant leaks between settings."""
    basis = basis_one()
    gens_list = [
        validate_generators([basis.rational(1)]),
        validate_generators([basis.rational(Fraction(3, 2))]),
    ]
    bases = [basis.zero(), basis.rational(Fraction(1, 2))]
    first = dict(R=Fraction(2), s=Fraction(1), Kcal=Fraction(1), j=1)
    params = [
        NormParams(**first),
        NormParams(**{**first, "s": Fraction(2)}),
        NormParams(**{**first, "Kcal": Fraction(3)}),
        NormParams(**{**first, "R": Fraction(3)}),
    ]
    rng = random.Random(8)
    terms = (((1,), random_poly(rng, 1)), ((2,), random_poly(rng, 2)), ((3,), random_poly(rng, 2)))
    a, l = TPoly.parse(["1/2", "-1/3"]), (2,)
    coeffs = {((1,), (0,)): TPoly.ONE, ((0,), (1,)): TPoly.ONE, ((2,), (2,)): TPoly.parse(["1/1", "1/1"])}
    cases = [(gens, base, p) for gens in gens_list for base in bases for p in params]
    for gens, base, p in cases + cases[::-1]:
        g = _ms(gens, terms, base=base)
        g2 = _ms(gens, terms[:2], base=base)
        for level in (0, 1, 2):
            assert h_norm(g, p, level=level) == h_norm_oracle(g, p, level)
        r6 = check_lemma6(g, g2, p)
        assert (r6.lhs, r6.rhs, r6.C_used) == lemma6_oracle(g, g2, p)
        for j in (p.j, p.j + 1):
            r5 = check_lemma5(a, l, j, g, p)
            assert (r5.lhs, r5.bound, r5.A_tilde) == lemma5_oracle(a, l, j, g, p)
        rho, tails = Fraction(1, 2), [Fraction(2, 3)]
        assert majorant_bound(coeffs, rho, tails, gens, p) == majorant_oracle(coeffs, rho, tails, gens, p)


def test_lemma6_computes_each_constant_once(monkeypatch):
    """At level 0 no weight is computed, and each |Gamma(<m,r>/s)| is
    evaluated once per distinct m."""
    gens = _gens_mixed()
    rng = random.Random(4)
    g1 = _ms(gens, (((1, 0), random_poly(rng, 2)), ((0, 1), random_poly(rng, 2)), ((2, 1), TPoly.ONE)))
    g2 = _ms(gens, (((1, 0), TPoly.T), ((1, 2), random_poly(rng, 2))))
    p = NormParams(R=3, s=Fraction(5, 3), Kcal=2, j=0)
    weights, gammas = [], []
    real_gamma = norms.gamma_abs
    monkeypatch.setattr(norms, "_weight", lambda *args: weights.append(args))
    monkeypatch.setattr(norms, "gamma_abs", lambda z: gammas.append(z) or real_gamma(z))
    norms._table.cache_clear()
    norms._gammas.cache_clear()
    report = check_lemma6(g1, g2, p)
    assert report.passed and report.splits == 6
    assert weights == []
    singles = {m for m, _ in g1.terms + g2.terms}
    sums = {tuple(x + y for x, y in zip(a, b)) for a, _ in g1.terms for b, _ in g2.terms}
    assert len(gammas) == len(set(gammas)) == len(singles | sums)


def test_norms_share_gamma_values_across_params(monkeypatch):
    """Norms over the same generators and s evaluate each
    |Gamma(<m,r>/s)| once between them, whatever their R, Kcal and level."""
    gens = _gens_mixed()
    rng = random.Random(9)
    g = _ms(gens, (((1, 0), random_poly(rng, 2)), ((0, 1), random_poly(rng, 2)), ((1, 1), TPoly.ONE)))
    h = _ms(gens, (((2, 0), TPoly.T), ((0, 1), TPoly.ONE)))
    gammas = []
    real_gamma = norms.gamma_abs
    monkeypatch.setattr(norms, "gamma_abs", lambda z: gammas.append(z) or real_gamma(z))
    norms._table.cache_clear()
    norms._gammas.cache_clear()
    p = NormParams(R=3, s=Fraction(5, 3), Kcal=2, j=0)
    h_norm(g, p)
    h_norm(g, NormParams(R=4, s=p.s, Kcal=1, j=1))
    h_norm(h, NormParams(R=p.R, s=p.s, Kcal=0, j=2))
    assert len(gammas) == len({m for m, _ in g.terms + h.terms}) == 4
    h_norm(g, NormParams(R=p.R, s=Fraction(2), Kcal=p.Kcal))
    assert len(gammas) == 4 + len(g.terms)


def _norm_reports(g, g2, a, l, coeffs, p) -> list:
    """The _mpf_ tuple of every value h_norm, check_lemma6, check_lemma5 and
    majorant_bound report on this data, levels 0 to 2 included."""
    out = [h_norm(g, p, level=j) for j in (0, 1, 2)]
    r6 = check_lemma6(g, g2, p)
    out += [r6.lhs, r6.rhs, r6.C_used]
    for j in (p.j, p.j + 1):
        r5 = check_lemma5(a, l, j, g, p)
        out += [r5.lhs, r5.bound, r5.A_tilde]
    out += [majorant_bound(coeffs, rho, tails, g.gens, p)
            for rho, tails in ((Fraction(1, 2), [Fraction(2, 3)]), (0.1, [0.1, 1.5]))]
    return [v._mpf_ for v in out]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(gens_of=st.sampled_from([_gens_one, _gens_mixed]), R=st.sampled_from([2, 2.1, Fraction(5, 3)]),
       level=st.integers(0, 2), base=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_raw_norms_equal_mpf_oracles_in_any_context(gens_of, R, level, base, seed):
    """Every reported value equals, bit for bit, the mpf-object arithmetic of
    the oracles, and does not depend on the caller's mpmath precision."""
    gens, rng = gens_of(), random.Random(seed)
    g = _ms(gens, _random_mseries(rng, gens).terms, base=gens.basis.rational(base))
    g2 = _ms(gens, _random_mseries(rng, gens).terms, base=g.lambda_base)
    p = NormParams(R=R, s=Fraction(1, 2), Kcal=2, j=level)
    a, l = random_poly(rng, 2), tuple(rng.randint(0, 2) for _ in range(gens.kappa - 1)) + (1,)
    coeffs = {((1,) * gens.kappa, (1, 0)): a, ((0,) * gens.kappa, (0, 2)): TPoly.ONE, (l, (1, 1)): TPoly.T}
    want = [h_norm_oracle(g, p, j) for j in (0, 1, 2)]
    want += lemma6_oracle(g, g2, p)
    for j in (p.j, p.j + 1):
        want += lemma5_oracle(a, l, j, g, p)
    want += [majorant_oracle(coeffs, rho, tails, gens, p)
             for rho, tails in ((Fraction(1, 2), [Fraction(2, 3)]), (0.1, [0.1, 1.5]))]
    got = _norm_reports(g, g2, a, l, coeffs, p)
    assert got == [v._mpf_ for v in want]
    for prec in (53, 300):
        for memo in (norms._table, norms._gammas, numeric._norm_powers):
            memo.cache_clear()
        with mpmath.workprec(prec):
            assert _norm_reports(g, g2, a, l, coeffs, p) == got


def test_majorant_reads_floats_at_their_repr():
    g = _gens_one()
    p = NormParams(**P0)
    coeffs = {((1,), (1,)): TPoly.ONE, ((0,), (2,)): TPoly.of(3)}
    tenth = majorant_bound(coeffs, Fraction(1, 10), [Fraction(1, 10)], g, p)
    assert majorant_bound(coeffs, 0.1, [0.1], g, p)._mpf_ == tenth._mpf_
    assert majorant_bound(coeffs, Fraction(0.1), [Fraction(0.1)], g, p) != tenth


# -- the check-norms run: its draws and its cost -----------------------------------


@pytest.mark.parametrize("name", ["euler_gens.json", "semigroup_2d.json", "resonant_logprefix.json"])
def test_norm_trials_draw_as_the_randint_reference(monkeypatch, tmp_path, name):
    """check-norms leaves its rng in the state a randint-based drawer of the
    same numbers leaves it in, at seeds 0-5: the number and order of the
    draws are pinned, those of the gate-rejection trials, whose data reach no
    report, included."""
    real, seen = norms.norm_trials, []

    def spy(rng, gens, R, s, Kcal):
        out = real(rng, gens, R, s, Kcal)
        seen.append((rng.getstate(), gens, s, Kcal))
        return out

    monkeypatch.setattr(norms, "norm_trials", spy)
    for seed in range(6):
        argv = ["check-norms", str(DATA / name), "--seed", str(seed), "--output-dir", str(tmp_path / str(seed))]
        assert cli.main(argv) == 0
        state, gens, s, Kcal = seen[-1]
        reference = random.Random(seed)
        norm_draws_oracle(reference, gens, s, Kcal)
        assert state == reference.getstate()


def test_check_norms_operation_counts():
    # the Gamma evaluations, root-kernel evaluations (memo misses), raw mpf
    # operations and mpmath.workprec entries of one check-norms run from
    # cold memos: noise-free cost signals, pinned so that extra float work
    # shows up as a failure (38 workprec entries when gamma_abs entered it,
    # 32 when the table weights, rho and the tail norms were read through
    # mpf objects); each of the six table weights is one raw_add and one
    # raw_mul
    counts = float_counts("check-norms", "euler_gens.json", "--seed", "7")
    assert counts == {"gamma": 6, "roots": 609, "raw_add": 775, "raw_mul": 1272, "raw_div": 88, "raw_pow": 117,
                      "workprec": 0}
