"""DulacSeries: canonical form, ring laws, derivation, cutoff propagation."""

import json
import random
from fractions import Fraction

import pytest

from dulac.errors import BasisMismatch, CutoffIncrease, SchemaError
from dulac.exponents import ExponentBasis
from dulac.scalars import ExactScalar
from dulac.series import INF, DulacSeries
from dulac.tpoly import TPoly

from .util import basis_mixed, basis_one, random_series, x_prefix


def _mono(basis, p, poly=TPoly.ONE, cutoff=INF):
    return DulacSeries.monomial(basis.rational(Fraction(p)), poly, cutoff)


def test_delta_of_t_times_x():
    basis = basis_one()
    f = _mono(basis, 1, TPoly.of(0, 1))  # t*x
    g = f.delta()
    assert len(g.terms) == 1
    e, c = g.terms[0]
    # (1 + d/dt)(t) = t + 1
    assert c == TPoly.of(1, 1)
    assert e.coords == (Fraction(1),)


def test_canonical_merge_and_zero_drop():
    basis = basis_one()
    f = _mono(basis, 2) + _mono(basis, 1) + _mono(basis, 2) * ExactScalar.of(-1)
    assert len(f.terms) == 1
    assert f.terms[0][0].coords == (Fraction(1),)
    assert f.val() == Fraction(1)


def test_terms_sorted_by_exponent():
    basis = basis_one()
    f = _mono(basis, 3) + _mono(basis, 1) + _mono(basis, 2)
    res = [e.coords[0] for e, _ in f.terms]
    assert res == [Fraction(1), Fraction(2), Fraction(3)]


def test_zero_series_val_inf():
    basis = basis_one()
    z = DulacSeries.zero(basis)
    assert z.is_zero()
    assert not z
    assert z.val() == INF
    assert z.leading() is None


def test_add_cutoff_min():
    basis = basis_one()
    f = _mono(basis, 1, cutoff=5)
    g = _mono(basis, 2, cutoff=3)
    assert (f + g).cutoff == Fraction(3)
    assert (f - g).cutoff == Fraction(3)


def test_mul_cutoff_rule():
    basis = basis_one()
    # cutoff = min(c1 + val g, c2 + val f)
    f = _mono(basis, 1, cutoff=5)
    g = _mono(basis, 2, cutoff=4)
    assert (f * g).cutoff == Fraction(5)  # min(5+2, 4+1)
    h = _mono(basis, 3, cutoff=INF)
    assert (f * h).cutoff == Fraction(8)  # min(5+3, inf+1)
    assert (h * h).cutoff == INF


def test_mul_drops_terms_beyond_cutoff():
    basis = basis_one()
    f = (_mono(basis, 1) + _mono(basis, 3)).truncate(4)
    g = _mono(basis, 1) + _mono(basis, 3)
    prod = f * g
    # f is unknown from x^4 on, so x^6 cannot be claimed
    assert prod.cutoff == Fraction(5)
    exps = [e.coords[0] for e, _ in prod.terms]
    assert exps == [Fraction(2), Fraction(4)]


def test_mul_by_zero_keeps_min_cutoff():
    # O(x^2) has no term below 2, and x's tail starts at 5: min(5 + 2, 2 + 1)
    basis = basis_one()
    f = _mono(basis, 1, cutoff=5)
    z = DulacSeries.zero(basis, cutoff=2)
    assert (f * z).is_zero()
    assert (f * z).cutoff == Fraction(3)


def test_mul_by_zero_counts_its_cutoff_as_low_value():
    # a zero factor is unknown from its cutoff on, so a negative low value
    # lowers the claim: x^-5 O(x) is x^-4 for the extension x, and O(x^-1)^2
    # is x^-2 for x^-1 x^-1
    basis = basis_one()
    f, g = _mono(basis, -5), DulacSeries.zero(basis, cutoff=1)
    assert (f * g).is_zero()
    assert (f * g).cutoff == (g * f).cutoff == Fraction(-4)
    z = DulacSeries.zero(basis, cutoff=-1)
    assert (z * z).cutoff == Fraction(-2)
    # an exact zero keeps the product exact
    assert (f * DulacSeries.zero(basis)).cutoff == INF


def test_mul_of_zero_factors_adds_their_cutoffs():
    # every term O(x^2) may have lies at or above 2, its low value
    basis = basis_one()
    z = DulacSeries.zero(basis, cutoff=2)
    assert z.low() == Fraction(2)
    assert _mono(basis, 1, cutoff=5).low() == Fraction(1)
    assert (z * z).is_zero()
    assert (z * z).cutoff == Fraction(4)


def test_scalar_and_poly_multiplication():
    basis = basis_one()
    f = _mono(basis, 2, cutoff=7)
    g = f * 3
    assert g.terms[0][1] == TPoly.of(ExactScalar.of(3))
    assert g.cutoff == Fraction(7)
    h = f * TPoly.of(0, 1)
    assert h.terms[0][1].degree == 1


def test_shift_moves_cutoff():
    basis = basis_one()
    f = _mono(basis, 1, cutoff=4)
    g = f.shift(basis.rational(Fraction(3, 2)))
    assert g.val() == Fraction(5, 2)
    assert g.cutoff == Fraction(11, 2)
    h = _mono(basis, 1).shift(basis.rational(Fraction(-1)))
    assert h.val() == Fraction(0)
    assert h.cutoff == INF


def test_infinite_cutoff_stays_infinite_past_the_double_range():
    # inf + a Fraction past the double range converts the Fraction to a
    # float, which overflows: the sum of an inf cutoff stays inf instead
    basis = basis_one()
    huge = Fraction(10**400)
    f = _mono(basis, 1).shift(basis.rational(huge))
    assert f.cutoff == INF
    assert f.val() == huge + 1
    g = _mono(basis, 1, cutoff=huge)
    assert (f * g).cutoff == (g * f).cutoff == 2 * huge + 1  # min(inf, huge + (huge + 1))
    assert (f * g).terms == ((basis.rational(huge + 2), TPoly.ONE),)


def test_approximate_basis_cutoffs_use_certified_lower_endpoint():
    # "0.5" is 0.5 +- 1/20: f = x^(1,0) known below 2 may hide x^(2,0), so
    # f * x^(0,1) may hide x^(2,1), whose real part can be as low as 49/20;
    # the enclosure midpoint would claim exactness below 5/2
    basis = ExponentBasis(["1", "0.5"])
    f = DulacSeries.monomial(basis.exponent([1, 0]), TPoly.ONE, 2)
    g = DulacSeries.monomial(basis.exponent([0, 1]), TPoly.ONE)
    hidden = basis.exponent([2, 1]).re_low
    assert hidden == Fraction(49, 20)
    for out in (f * g, g * f, f.shift(basis.exponent([0, 1]))):
        assert out.cutoff == hidden
        assert out.terms[0][0].coords == (1, 1)
    assert g.val() == Fraction(1, 2)  # val() stays the midpoint


def test_truncate_never_raises_cutoff():
    basis = basis_one()
    f = _mono(basis, 1, cutoff=4)
    g = f.truncate(2)
    assert g.cutoff == Fraction(2)
    assert len(g.terms) == 1
    with pytest.raises(CutoffIncrease):
        g.truncate(3)


def test_construction_drops_at_cutoff_boundary():
    basis = basis_one()
    # boundary term Re lambda == cutoff is unknown territory
    f = DulacSeries(basis, ((basis.rational(2), TPoly.ONE),), 2)
    assert f.is_zero()


def test_basis_mismatch():
    f = _mono(basis_one(), 1)
    g = _mono(basis_mixed(), 1)
    with pytest.raises(BasisMismatch):
        f + g
    with pytest.raises(BasisMismatch):
        f * g


def test_json_roundtrip_inf_cutoff():
    basis = basis_mixed()
    rng = random.Random(31)
    f = random_series(rng, basis)
    data = f.to_json()
    assert data["cutoff"] is None
    g = DulacSeries.from_json(data, basis)
    assert g == f


def test_json_roundtrip_finite_cutoff():
    basis = basis_one()
    f = (x_prefix(basis) + _mono(basis, 2)).truncate(Fraction(7, 2))
    data = f.to_json()
    assert data["cutoff"] == 3.5
    g = DulacSeries.from_json(data, basis)
    assert g == f
    assert g.cutoff == Fraction(7, 2)


@pytest.mark.parametrize(
    "cutoff, written",
    [(Fraction(5, 7), "5/7"), (Fraction(1, 3), "1/3"), (Fraction(-2, 3), "-2/3"), (Fraction(4), 4.0),
     (Fraction(1, 10), "1/10"), (Fraction(1, 2**70), f"1/{2**70}")],
    ids=["5/7", "1/3", "-2/3", "integer", "1/10", "tiny_dyadic"],
)
def test_json_roundtrip_keeps_exact_cutoff(cutoff, written):
    # a cutoff is written as a float only when that float reads back as it
    basis = basis_one()
    f = DulacSeries(basis, ((basis.rational(cutoff - 1), TPoly.ONE),), cutoff)
    data = json.loads(json.dumps(f.to_json()))
    assert data["cutoff"] == written
    g = DulacSeries.from_json(data, basis)
    assert g.cutoff == cutoff
    assert g == f


@pytest.mark.parametrize("cutoff", ["5/0", "5/7.0", "1 /3", "abc", "", True, [5], {}])
def test_from_json_rejects_malformed_cutoff(cutoff):
    with pytest.raises(SchemaError, match="cutoff"):
        DulacSeries.from_json({"cutoff": cutoff, "terms": []}, basis_one())


def test_from_json_reads_number_cutoffs_as_decimals():
    assert DulacSeries.from_json({"cutoff": 3, "terms": []}, basis_one()).cutoff == 3
    assert DulacSeries.from_json({"cutoff": 0.1, "terms": []}, basis_one()).cutoff == Fraction(1, 10)
    assert DulacSeries.from_json({"cutoff": "7/2", "terms": []}, basis_one()).cutoff == Fraction(7, 2)


@pytest.mark.parametrize(
    "item, field",
    [({"exp": [0.5], "poly": ["1/1"]}, "terms[0].exp"), ({"exp": [True], "poly": ["1/1"]}, "terms[0].exp"),
     ({"exp": ["1/1"], "poly": [1.5]}, "terms[0].poly"), ({"exp": ["1/1"], "poly": "12"}, "terms[0].poly")],
    ids=["float_exp", "bool_exp", "float_poly", "string_poly"],
)
def test_from_json_rejects_non_string_fields(item, field):
    with pytest.raises(SchemaError) as exc:
        DulacSeries.from_json({"terms": [item]}, basis_one())
    assert field in str(exc.value)


@pytest.mark.parametrize(
    "data, field",
    [([], "series: expected a JSON object"), ({"terms": {}}, "series: terms must be a list"),
     ({"terms": [{"poly": ["1/1"]}]}, "series: terms[0] must have exactly the keys"),
     ({"terms": [{"exp": ["1/1"]}]}, "series: terms[0] must have exactly the keys"),
     ({"terms": [{"exp": ["1/1"], "poly": ["1/1"], "t": 1}]}, "series: terms[0] must have exactly the keys")],
    ids=["non_object", "non_list_terms", "missing_exp", "missing_poly", "extra_key"],
)
def test_from_json_rejects_malformed_shape(data, field):
    with pytest.raises(SchemaError) as exc:
        DulacSeries.from_json(data, basis_one())
    assert field in str(exc.value)


def test_ring_laws_random():
    # exact identities over both bases, infinite cutoffs
    for basis in (basis_one(), basis_mixed()):
        rng = random.Random(41)
        zero = DulacSeries.zero(basis)
        for _ in range(100):
            f = random_series(rng, basis)
            g = random_series(rng, basis)
            h = random_series(rng, basis)
            assert f + g == g + f
            assert (f + g) + h == f + (g + h)
            assert f + zero == f
            assert f - f == zero
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h


def test_derivation_laws_random():
    basis = basis_mixed()
    rng = random.Random(43)
    for _ in range(100):
        f = random_series(rng, basis)
        g = random_series(rng, basis)
        assert (f + g).delta() == f.delta() + g.delta()
        # Leibniz rule
        assert (f * g).delta() == f.delta() * g + f * g.delta()


def test_val_additivity_random():
    basis = basis_one()
    rng = random.Random(47)
    for _ in range(100):
        f = random_series(rng, basis)
        g = random_series(rng, basis)
        prod = f * g
        if f.is_zero() or g.is_zero():
            assert prod.is_zero()
        else:
            assert prod.val() == f.val() + g.val()
