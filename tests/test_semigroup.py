"""Generator validation, membership, and the norm-weight rule."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dulac.errors import DependentGenerators, NonpositiveRealPart
from dulac.exponents import ExponentBasis
from dulac.semigroup import (
    Generators,
    choose_R,
    decompose,
    exponent_gaps,
    suggest_generators,
    validate_generators,
)
from dulac.series import DulacSeries
from dulac.solver import extend
from dulac.tpoly import TPoly

from .util import (
    basis_mixed,
    basis_one,
    decompose_oracle,
    euler_ode,
    nullspace_vector,
    relation_witness_oracle,
    solve_unique,
)


def _gens_one():
    basis = basis_one()
    return validate_generators([basis.rational(1)])


def _gens_half_mixed():
    # r_1 = 1/2, r_2 = 1 + i over the basis (1, 1+1i)
    basis = basis_mixed()
    return validate_generators(
        [basis.exponent([Fraction(1, 2), Fraction(0)]), basis.exponent([Fraction(0), Fraction(1)])]
    )


# -- exact linear algebra: the Hermite layer against the Fraction oracle ------


def test_solve_unique():
    cols = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)]]
    assert solve_unique(cols, [Fraction(3), Fraction(1)]) == [Fraction(2), Fraction(1)]
    # inconsistent: x * (1, 0) can never produce (0, 1)
    assert solve_unique([[Fraction(1), Fraction(0)]], [Fraction(0), Fraction(1)]) is None
    # the same systems as membership questions: r = (1, 0), (1, 1)
    basis = basis_mixed()
    g = validate_generators([basis.exponent([1, 0]), basis.exponent([1, 1])])
    assert decompose(basis.exponent([3, 1]), g) == decompose_oracle(basis.exponent([3, 1]), g) == (2, 1)
    one = validate_generators([basis.exponent([1, 0])])
    assert decompose(basis.exponent([0, 1]), one) is decompose_oracle(basis.exponent([0, 1]), one) is None


def test_nullspace_vector():
    cols = [[Fraction(1)], [Fraction(2)]]
    x = nullspace_vector(cols)
    assert x is not None
    assert x[0] * 1 + x[1] * 2 == 0 and any(x)
    assert nullspace_vector([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]) is None
    # the same columns as generators: 1 and 2 are linked, (1, 0) and (0, 1) are not
    basis = basis_one()
    with pytest.raises(DependentGenerators) as info:
        validate_generators([basis.rational(1), basis.rational(2)])
    assert info.value.witness == relation_witness_oracle([basis.rational(1), basis.rational(2)]) == [-2, 1]
    assert validate_generators([basis_mixed().exponent([1, 0]), basis_mixed().exponent([0, 1])]).kappa == 2


_ORACLE_BASES = [ExponentBasis(b) for b in (["1"], ["1", "1+1i"], ["1", "1.41421356237"], ["1", "2/1", "1+1i"])]
_coordinate = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_semigroup_layer_matches_fraction_oracle(data):
    basis = data.draw(st.sampled_from(_ORACLE_BASES))
    exponent = st.lists(_coordinate, min_size=basis.dim, max_size=basis.dim).map(basis.exponent)
    rs = []
    for _ in range(data.draw(st.integers(1, 3))):
        if rs and data.draw(st.booleans()):  # a rational multiple of an integer combination
            e = basis.zero()
            for r in rs:
                e = e + r * data.draw(st.integers(-2, 2))
            e = e * data.draw(_coordinate)
        else:
            e = data.draw(exponent)
        if not e.re_sign():  # zero or purely imaginary: move it off the axis
            e = e + basis.rational(1)
        rs.append(e if e.re_sign() > 0 else -e)
    witness = relation_witness_oracle(rs)
    if witness is not None:
        with pytest.raises(DependentGenerators) as info:
            validate_generators(rs)
        assert info.value.witness == witness
        assert str(info.value) == (
            f"validate_generators: integer relation {witness} . r = 0 links the "
            "generators; they are not independent over the integers"
        )
        return
    g = validate_generators(rs)
    m = data.draw(st.lists(st.integers(-2, 3), min_size=g.kappa, max_size=g.kappa))
    scale = data.draw(st.sampled_from([1, 1, Fraction(1, 2), Fraction(-1, 3)]))
    for lam in (g.m_exponent(m), g.m_exponent(m) * scale, data.draw(exponent), basis.zero(), basis_one().rational(1)):
        assert decompose(lam, g) == decompose_oracle(lam, g)
    if min(m) >= 0 and any(m):
        assert decompose(g.m_exponent(m), g) == tuple(m)


# -- validation ---------------------------------------------------------------


def test_validate_single_generator():
    g = _gens_one()
    assert g.kappa == 1
    assert g.m_exponent((1,)).re_mid == Fraction(1)


def test_validate_rejects_nonpositive():
    basis = basis_one()
    with pytest.raises(NonpositiveRealPart):
        validate_generators([basis.rational(0)])
    with pytest.raises(NonpositiveRealPart):
        validate_generators([basis.rational(-1)])
    with pytest.raises(ValueError):
        validate_generators([])


def test_validate_dependent_pair_has_witness():
    basis = basis_one()
    with pytest.raises(DependentGenerators) as info:
        validate_generators([basis.rational(Fraction(1, 2)), basis.rational(1)])
    w = info.value.witness
    # the witness is an exact integer relation: w1 * 1/2 + w2 * 1 = 0
    assert w is not None and any(w)
    assert Fraction(w[0], 2) + Fraction(w[1]) == 0


def test_validate_independent_mixed_pair():
    g = _gens_half_mixed()
    assert g.kappa == 2
    e = g.m_exponent((1, 1))
    assert (e.re_mid, e.im_mid) == (Fraction(3, 2), Fraction(1))
    assert e.parts == (2, 3, 2)
    assert g.m_exponent((2, 0)).coords == (Fraction(1), Fraction(0))


@pytest.mark.parametrize("m", [(1, 5), (1,), (1, 0, 0)])
def test_multi_index_of_wrong_length_raises(m):
    # a multi-index has exactly kappa entries: none is dropped or padded
    g = _gens_one() if len(m) == 2 else _gens_half_mixed()
    with pytest.raises(ValueError, match="kappa"):
        g.m_exponent(m)


# -- membership ---------------------------------------------------------------


def test_decompose_examples():
    g = _gens_one()
    basis = g.basis
    assert decompose(basis.rational(3), g) == (3,)
    assert decompose(basis.rational(Fraction(1, 2)), g) is None
    assert decompose(basis.rational(-2), g) is None
    assert decompose(basis.zero(), g) is None  # m = 0 excluded


def test_decompose_mixed():
    g = _gens_half_mixed()
    target = g.m_exponent((1, 2))
    assert decompose(target, g) == (1, 2)
    # 1/2 + 1/2 i is not an integer combination
    basis = g.basis
    off = basis.exponent([Fraction(1, 2), Fraction(1, 2)])
    assert decompose(off, g) is None


def test_decompose_roundtrip_random():
    rng = random.Random(67)
    for g in (_gens_one(), _gens_half_mixed()):
        for _ in range(100):
            m = tuple(rng.randint(0, 10) for _ in range(g.kappa))
            if not any(m):
                continue
            assert decompose(g.m_exponent(m), g) == m


def test_decompose_foreign_basis():
    g = _gens_one()
    other = basis_mixed()
    assert decompose(other.rational(1), g) is None


# -- norm-weight rule -----------------------------------------------------------


def test_choose_R():
    g = _gens_one()
    theta, R = choose_R(Fraction(0), g)
    assert theta == 1 and R == Fraction(2)
    assert choose_R(Fraction(2), g) == (1, Fraction(4))
    theta2, R2 = choose_R(Fraction(1), _gens_half_mixed())
    assert theta2 == 2 and R2 == Fraction(4)
    assert choose_R(Fraction(3), _gens_half_mixed())[1] == Fraction(12)


# -- gaps against a solved series ----------------------------------------------


def test_decomposition_is_kept_per_exponent():
    basis = basis_mixed()
    g = validate_generators([basis.exponent([1, 0]), basis.exponent([0, 1])])
    lam = basis.exponent([2, 3])
    assert g.decomposition(lam) == decompose(lam, g) == (2, 3)
    # an equal exponent reached another way is the same map key
    again = basis.exponent([Fraction(5, 2), 3]) - basis.exponent([Fraction(1, 2), 0])
    assert g.decomposition(again) is g.decomposition(lam)
    assert g.decomposition(basis.exponent([Fraction(1, 2), 0])) is None


def test_exponent_gaps_euler():
    basis = basis_one()
    state = extend(euler_ode(), DulacSeries.zero(basis), 6)
    g = _gens_one()
    gaps = exponent_gaps(state.solution.terms, g, 1)
    assert [(k, d) for k, _, d in gaps] == [(2, (1,)), (3, (2,)), (4, (3,)), (5, (4,))]
    assert all(gap.coords == (Fraction(k - 1),) for k, gap, _ in gaps)
    with pytest.raises(ValueError):
        exponent_gaps(state.solution.terms, g, 0)


def test_exponent_gaps_detect_outsider():
    basis = basis_one()
    terms = (
        (basis.rational(1), TPoly.ONE),
        (basis.rational(Fraction(3, 2)), TPoly.ONE),
    )
    g = _gens_one()
    gaps = exponent_gaps(terms, g, 1)
    assert gaps[0][2] is None


# -- suggestion heuristic --------------------------------------------------------


def test_suggest_generators_euler():
    basis = basis_one()
    state = extend(euler_ode(), DulacSeries.zero(basis), 6)
    out = suggest_generators(euler_ode(), state.solution, basis)
    assert out["suggested"] == [["1/1"]]
    assert "note" in out and "heuristic" in out["note"]


def test_suggest_generators_empty():
    basis = basis_one()
    out = suggest_generators(None, None, basis)
    assert out == {"candidates": [], "suggested": [], "note": out["note"]}
