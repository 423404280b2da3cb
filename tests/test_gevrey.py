"""Growth order, normalized norm tables, envelope fitting, verdicts."""

import random
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dulac import cli
from dulac.errors import SlopeUndetermined
from dulac.gevrey import INF, classify, fit_growth, normalized_coeffs
from dulac.scalars import ZERO, ExactScalar
from dulac.series import DulacSeries
from dulac.solver import LinearData, extend, extract_linearization
from dulac.tpoly import TPoly

from .util import (
    DATA, basis_mixed, basis_one, convergent_ode, euler_ode, float_counts, gevrey_oracle, random_poly, random_series,
    read_oracle,
)


def _lin(basis, A, nu_sec_res):
    """Hand-built linearization with nu = 0 and given secondary real parts."""
    n = len(A) - 1
    A = tuple(ExactScalar.of(a) for a in A)
    nu_sec = tuple(None if r is None else basis.rational(r) for r in nu_sec_res)
    B = tuple(None if e is None else TPoly.ONE for e in nu_sec)
    ell = max(j for j, a in enumerate(A) if not a.is_zero())
    return LinearData(
        nu=basis.zero(), A=A, nu_sec=nu_sec, B=B, ell=ell,
        L=TPoly(A[: ell + 1]), n=n,
    )


def test_slope_euler_is_one():
    basis = basis_one()
    lin = extract_linearization(euler_ode(), DulacSeries.zero(basis))
    assert lin.slope() == Fraction(1)


def test_slope_convergent_is_inf():
    basis = basis_one()
    lin = extract_linearization(convergent_ode(), DulacSeries.zero(basis))
    assert lin.slope() == INF


def test_slope_minimum_over_candidates():
    basis = basis_one()
    # A_2 = 0; secondaries at Re 3 (j=1) and Re 4 (j=2): min(3/1, 4/2) = 2
    lin = _lin(basis, (1, 0, 0), (None, 3, 4))
    assert lin.slope() == Fraction(2)


def test_slope_undetermined():
    basis = basis_one()
    lin = _lin(basis, (1, 0), (None, None))
    with pytest.raises(SlopeUndetermined):
        lin.slope()


def test_normalized_coeffs_euler():
    basis = basis_one()
    state = extend(euler_ode(), DulacSeries.zero(basis), 8)
    rows = normalized_coeffs(state.solution.terms, 1, 2)
    assert [r.k for r in rows] == list(range(1, 8))
    # ||(k-1)!||_R / Gamma(k) = 1 for every k
    for r in rows:
        assert abs(r.rho - 1) < 1e-9
    assert rows[3].re_lambda == Fraction(4)
    assert rows[3].deg_c == 0


def test_normalized_coeffs_rejects_bad_s():
    basis = basis_one()
    state = extend(euler_ode(), DulacSeries.zero(basis), 4)
    with pytest.raises(ValueError):
        normalized_coeffs(state.solution.terms, INF, 2)
    with pytest.raises(ValueError):
        normalized_coeffs(state.solution.terms, 0, 2)


def test_fit_growth_geometric():
    C, A, k_C, k_A = fit_growth([1, 2, 4, 8])
    assert abs(A - 2) < 1e-20
    assert abs(C - mpmath.mpf(1) / 2) < 1e-20
    # every ratio and every constant tie; the first index is kept
    assert k_A == 1 and k_C == 1


def test_fit_growth_single_point():
    C, A, k_C, k_A = fit_growth([5])
    assert C == 5 and A == 1
    assert k_C == 1 and k_A is None


def test_fit_growth_clamps_decay_to_one():
    # decreasing data: A clamps at 1, C is the first (largest) value
    C, A, k_C, k_A = fit_growth([8, 4, 2])
    assert A == 1 and k_A is None
    assert C == 8 and k_C == 1


def test_fit_growth_skips_zeros():
    C, A, _, _ = fit_growth([0, 3, 0, 12])
    # surviving grid points k = 2 and k = 4: ratio 4 over 2 steps -> A = 2
    assert abs(A - 2) < 1e-20
    assert abs(C - mpmath.mpf(3) / 4) < 1e-20
    C0, A0, k_C0, k_A0 = fit_growth([0, 0])
    assert C0 == 0 and A0 == 1 and k_C0 is None and k_A0 is None


def test_fit_growth_abscissae_skip_ties():
    # ratios over the gaps in x: 4/1 over 1 and 8/1 over 1; the tie at x = 2
    # gives none
    C, A, k_C, k_A = fit_growth([1, 4, 1, 8], [1, 2, 2, 3])
    assert A == 8 and k_A == 3
    assert C == mpmath.mpf(1) / 8 and k_C == 1
    C2, A2, _, _ = fit_growth([1, 4], [Fraction(1, 2), Fraction(5, 2)])
    assert abs(A2 - 2) < 1e-30 and abs(C2 - 2 ** -0.5) < 1e-15


def test_fit_growth_reads_its_inputs_whatever_the_precision():
    """A Fraction rho or abscissa is read at 128 bits, not at the caller's
    precision; an mpf as is and a float exactly.  The result at 128 bits is
    the one mpf inputs read by mpmathify inside workprec(128) give."""
    rhos = [Fraction(1, 3), Fraction(2, 7), Fraction(5, 11), Fraction(13, 17)]
    mixed = [mpmath.mpf(2) / 3, 0.1, 3, Fraction(22, 7)]
    want = [fit_growth([read_oracle(r) for r in rhos]), fit_growth(mixed, [Fraction(1, 3), 1, Fraction(7, 5), 2])]
    for prec in (53, 128, 300):
        with mpmath.workprec(prec):
            got = [fit_growth(rhos), fit_growth(mixed, [Fraction(1, 3), 1, Fraction(7, 5), 2])]
        assert [(C._mpf_, A._mpf_, k_C, k_A) for C, A, k_C, k_A in got] == \
            [(C._mpf_, A._mpf_, k_C, k_A) for C, A, k_C, k_A in want]


def test_classify_euler():
    basis = basis_one()
    state = extend(euler_ode(), DulacSeries.zero(basis), 8)
    rep = classify(state, 1, 2)
    assert rep.verdict == "GevreyBounded"
    assert abs(rep.A_fit - 1) < 1e-9
    assert abs(rep.C_fit - 1) < 1e-9
    assert rep.radius_estimate is None
    assert rep.R_used == Fraction(2)


def test_classify_convergent():
    basis = basis_one()
    state = extend(convergent_ode(), DulacSeries.zero(basis), 9)
    rep = classify(state, INF, 2)
    assert rep.verdict == "ConvergentCandidate"
    # c_k = c_{k-1} / (k - 1/2) decays, so the envelope base clamps at 1
    assert abs(rep.A_fit - 1) < 1e-12
    assert abs(rep.radius_estimate - 1) < 1e-12
    assert all(r.gamma == 1 for r in rep.rows)


def test_classify_convergent_skips_tied_real_parts():
    # Re lambda = 1, 2, 2, 3 (the two 2s differ in Im): growth ratios come
    # from the pairs with a gap, 4/1 and 8/1, so A = 8 and C = max |c| / A^Re
    basis = basis_mixed()
    coeffs = {(1, 0): 1, (2, 0): 4, (1, 1): 1, (3, 0): 8}
    terms = tuple((basis.exponent(e), TPoly.of(c)) for e, c in coeffs.items())
    solution = DulacSeries(basis, terms, 4)
    state = SimpleNamespace(solution=solution, residual=DulacSeries.zero(basis))
    rep = classify(state, INF, 2)
    assert [r.re_lambda for r in rep.rows] == [1, 2, 2, 3]
    assert rep.A_fit == 8
    assert rep.C_fit == mpmath.mpf(1) / 8
    assert all(r.rho <= rep.envelope_at(r) for r in rep.rows)


def test_classify_short_run_inconclusive():
    basis = basis_one()
    state = extend(euler_ode(), DulacSeries.zero(basis), 3)  # two terms, residual not zero
    assert classify(state, 1, 2).verdict == "Inconclusive"
    assert classify(state, INF, 2).verdict == "Inconclusive"


def test_classify_terminating_short_run_conclusive():
    basis = basis_one()
    from dulac.ode import ODESpec

    # dy - y = 0 has the exact one-term solution y = x: residual identically 0
    F = ODESpec.from_json(
        {
            "n": 1,
            "terms": [
                {"coeff": "1/1", "x": 0, "y": [0, 1]},
                {"coeff": "-1/1", "x": 0, "y": [1, 0]},
            ],
        }
    )
    state = extend(F, DulacSeries.monomial(basis.rational(1), TPoly.ONE), 40)
    assert state.residual.is_zero()
    assert classify(state, INF, 2).verdict == "ConvergentCandidate"


def test_envelope_dominates_rows():
    basis = basis_one()
    state = extend(euler_ode(), DulacSeries.zero(basis), 8)
    for rep in (classify(state, 1, 2), classify(state, INF, 2)):
        for row in rep.rows:
            assert row.rho <= rep.envelope_at(row) * (1 + 1e-20)


def test_csv_shape(tmp_path):
    # the verify artifact of the same solution: euler.json starts at x, s = 1, R = 2
    assert cli.main(["verify", str(DATA / "euler.json"), "--cutoff", "6", "--output-dir", str(tmp_path)]) == 0
    text = (tmp_path / "gevrey.csv").read_bytes().decode("utf-8")
    lines = text.split("\r\n")
    assert lines[0] == "k,re_lambda,im_lambda,deg_c,norm_R,gamma_abs,rho,envelope_Ck"
    assert lines[-1] == ""  # trailing CRLF
    assert len(lines) == 2 + 5  # header + 5 rows + empty tail
    assert text.count("\n") == text.count("\r\n")


def test_report_json_is_plain_data():
    import json

    basis = basis_one()
    state = extend(euler_ode(), DulacSeries.zero(basis), 6)
    payload = classify(state, 1, 2).to_json()
    json.dumps(payload)  # must be serializable as-is
    assert payload["s"] == "1"
    assert payload["verdict"] == "GevreyBounded"
    assert len(payload["rows"]) == 5


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), s=st.sampled_from([INF, Fraction(1), Fraction(2, 3), Fraction(5, 2)]),
       R=st.sampled_from([2, Fraction(7, 3)]))
def test_classify_equals_mpf_oracle_in_any_context(seed, s, R):
    """The rows, the fit and the envelope equal the mpf-object arithmetic of
    the oracle bit for bit, whatever the caller's precision; over basis
    ["1","1+1i"] the real parts are non-dyadic and some are tied."""
    basis, rng = basis_mixed(), random.Random(seed)
    solution = random_series(rng, basis, max_terms=6, cutoff=20)
    if solution.is_zero():
        solution = DulacSeries(basis, ((basis.rational(Fraction(1, 3)), random_poly(rng)),), 20)
    state = SimpleNamespace(solution=solution, residual=DulacSeries.zero(basis))
    rhos, C, A, envelope = gevrey_oracle(solution.terms, s, R)
    want = [[v._mpf_ for v in rhos], C._mpf_, A._mpf_, [v._mpf_ for v in envelope]]
    for prec in (53, 300):
        with mpmath.workprec(prec):
            rep = classify(state, s, R)
        got = [[r.rho._mpf_ for r in rep.rows], rep.C_fit._mpf_, rep.A_fit._mpf_,
               [rep.envelope_at(r)._mpf_ for r in rep.rows]]
        assert got == want


def test_verify_operation_counts():
    # the float work of one verify from cold memos: one Gamma evaluation per
    # row and, on raw values, no mpmath.workprec entry (116 when gamma_abs,
    # the row builder, the fit and the envelope worked on mpf objects); each
    # power A^k of the fit is computed once, so the envelope takes one
    # raw_mul per row, and raw_div forms the 19 rho, the 19 C candidates
    # and the 18 ratios with their 18 inverse gaps
    counts = float_counts("verify", "nonlinear.json", "--cutoff", "20")
    assert counts == {"gamma": 19, "roots": 19, "raw_add": 0, "raw_mul": 19, "raw_div": 74, "raw_pow": 0,
                      "workprec": 0}
