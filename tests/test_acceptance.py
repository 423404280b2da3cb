"""Acceptance runs: the eight headline behaviors, one verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines on
stdout; without -s they still gate the suite and surface on failure.  Every
expected value is recomputed here from an independent oracle (closed form or
brute-force recursion), never from the code under test.
"""

import json
import random
import time
from fractions import Fraction

import mpmath
import pytest

from dulac import cli
from dulac.errors import PreconditionViolated, Resonance
from dulac.gammafn import gamma_abs
from dulac.mseries import iota, iota_inv
from dulac.norms import NormParams, check_lemma5, check_lemma6
from dulac.scalars import ExactScalar
from dulac.semigroup import validate_generators
from dulac.series import DulacSeries
from dulac.solver import solve_coefficient
from dulac.tpoly import TPoly

from .util import (
    DATA,
    basis_mixed,
    basis_one,
    random_poly,
    random_scalar,
    random_series,
)


def _verdict(num: int, ok: bool, desc: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _run(tmp_path, sub, *argv):
    out = tmp_path / sub
    code = cli.main([*argv, "--output-dir", str(out)])
    return code, out


def _load(out, name):
    return json.loads((out / name).read_text(encoding="utf-8"))


def test_criterion_1_euler_pipeline(tmp_path):
    t0 = time.perf_counter()
    code_s, out_s = _run(tmp_path, "s", "solve", str(DATA / "euler.json"))
    code_a, out_a = _run(tmp_path, "a", "analyze", str(DATA / "euler.json"))
    code_v, out_v = _run(tmp_path, "v", "verify", str(DATA / "euler.json"))
    elapsed = time.perf_counter() - t0

    ok = code_s == code_a == code_v == 0
    terms = _load(out_s, "solution.json")["solution"]["terms"] if ok else []
    ok = ok and len(terms) == 25
    # oracle: c_1 = 1, c_k = (k-1) c_{k-1}
    c = 1
    for k, term in enumerate(terms, start=1):
        if k > 1:
            c *= k - 1
        ok = ok and term["exp"] == [f"{k}/1"] and term["poly"] == [f"{c}/1"]
    lin = _load(out_a, "analysis.json") if ok else {}
    ok = ok and lin["linearization"]["nu"] == ["0/1"]
    ok = ok and lin["linearization"]["A"][0] == "-1/1"
    ok = ok and lin["linearization"]["ell"] == 0
    ok = ok and lin["s"] == "1"
    rep = _load(out_v, "gevrey.json") if ok else {}
    ok = ok and all(abs(row["rho"] - 1) <= 1e-9 for row in rep["rows"])
    ok = ok and rep["A_fit"] <= 1 + 1e-9
    ok = ok and elapsed < 5.0
    _verdict(1, ok, f"factorial pipeline, 25 exact terms, {elapsed:.2f}s")


def test_criterion_2_resonant_log_cases(tmp_path, capsys):
    code_bare, _ = _run(tmp_path, "r0", "solve", str(DATA / "resonant.json"))
    err = capsys.readouterr().err
    ok = code_bare == 3 and "lambda = (1)" in err

    # hand substitution: delta(t x) = (t+1) x, so delta(tx) - tx - x = 0
    code_log, out_log = _run(tmp_path, "r1", "solve", str(DATA / "resonant_logprefix.json"))
    ok = ok and code_log == 0
    ok = ok and _load(out_log, "solution.json")["residual"]["terms"] == []
    code_log2, out_log2 = _run(
        tmp_path, "r2", "solve", str(DATA / "resonant_logprefix.json"), "--cutoff", "17"
    )
    ok = ok and code_log2 == 0
    ok = ok and _load(out_log2, "solution.json")["residual"]["terms"] == []

    # hand substitution for the double root: y = (t^2/2) x gives
    # delta y = (t^2/2 + t) x, delta^2 y = (t^2/2 + 2t + 1) x, and
    # delta^2 y - 2 delta y + y = x exactly
    code_d, out_d = _run(tmp_path, "r3", "solve", str(DATA / "resonant_double.json"))
    ok = ok and code_d == 0
    ok = ok and _load(out_d, "solution.json")["residual"]["terms"] == []
    _verdict(2, ok, "resonance exits 3; log prefixes leave zero residual")


def test_criterion_3_nonlinear_gevrey(tmp_path):
    code_s, out_s = _run(tmp_path, "n", "solve", str(DATA / "nonlinear.json"))
    code_a, out_a = _run(tmp_path, "na", "analyze", str(DATA / "nonlinear.json"))
    code_v, out_v = _run(tmp_path, "nv", "verify", str(DATA / "nonlinear.json"))
    ok = code_s == code_a == code_v == 0

    # oracle: c_1 = 1, c_k = (k-1) c_{k-1} + sum_{i+j=k} c_i c_j
    c = {1: 1}
    for k in range(2, 21):
        c[k] = (k - 1) * c[k - 1] + sum(c[i] * c[k - i] for i in range(1, k))
    ok = ok and (c[2], c[3], c[4]) == (2, 8, 44)
    terms = _load(out_s, "solution.json")["solution"]["terms"] if ok else []
    ok = ok and len(terms) == 20
    for k, term in enumerate(terms, start=1):
        ok = ok and term["poly"] == [f"{c[k]}/1"]

    ok = ok and _load(out_a, "analysis.json")["s"] == "1"
    rep = _load(out_v, "gevrey.json") if ok else {}
    ok = ok and rep["A_fit"] < float("inf")
    ok = ok and all(
        row["rho"] <= row["envelope_Ck"] * (1 + 1e-12) for row in rep["rows"]
    )
    _verdict(3, ok, "nonlinear coefficients exact for k <= 20, envelope holds")


def test_criterion_4_convergent_case(tmp_path):
    code_s, out_s = _run(tmp_path, "c", "solve", str(DATA / "convergent.json"))
    code_a, out_a = _run(tmp_path, "ca", "analyze", str(DATA / "convergent.json"))
    code_v, out_v = _run(tmp_path, "cv", "verify", str(DATA / "convergent.json"))
    ok = code_s == code_a == code_v == 0

    ok = ok and _load(out_a, "analysis.json")["s"] == "inf"
    # oracle: c_1 = 2, c_k = c_{k-1} / (k - 1/2)
    terms = _load(out_s, "solution.json")["solution"]["terms"] if ok else []
    ok = ok and len(terms) == 11
    c = Fraction(2)
    for k, term in enumerate(terms, start=1):
        if k > 1:
            c /= k - Fraction(1, 2)
        ok = ok and term["poly"] == [f"{c.numerator}/{c.denominator}"]
    rep = _load(out_v, "gevrey.json") if ok else {}
    ok = ok and rep["verdict"] == "ConvergentCandidate"
    ok = ok and rep["A_fit"] <= 1 + 1e-12
    _verdict(4, ok, "s = inf with exact decaying coefficients, A_fit <= 1")


def test_criterion_5_ring_and_derivation_laws():
    rng = random.Random(211)
    failures = 0
    trials = 0
    for basis in (basis_one(), basis_mixed()):
        zero = DulacSeries.zero(basis)
        for _ in range(250):
            trials += 1
            f = random_series(rng, basis)
            g = random_series(rng, basis)
            h = random_series(rng, basis)
            laws = [
                f + g == g + f,
                (f + g) + h == f + (g + h),
                f - f == zero,
                f * g == g * f,
                (f * g) * h == f * (g * h),
                f * (g + h) == f * g + f * h,
                (f * g).delta() == f.delta() * g + f * g.delta(),
            ]
            if f.is_zero() or g.is_zero():
                laws.append((f * g).is_zero())
            else:
                laws.append((f * g).val() == f.val() + g.val())
            if not all(laws):
                failures += 1
    ok = failures == 0 and trials == 500
    _verdict(5, ok, f"{trials} ring/derivation/valuation trials, {failures} failures")


def _gens_for(tag):
    if tag == "one":
        basis = basis_one()
        return validate_generators([basis.rational(1)])
    basis = basis_mixed()  # entries 1 and 1+i
    return validate_generators(
        [basis.exponent([Fraction(1), Fraction(0)]), basis.exponent([Fraction(0), Fraction(1)])]
    )


def _random_member(rng, gens):
    from dulac.mseries import MSeries
    from dulac.series import INF

    terms = []
    for _ in range(rng.randint(1, 4)):
        m = tuple(rng.randint(0, 3) for _ in range(gens.kappa))
        if not any(m):
            m = tuple(1 if i == 0 else v for i, v in enumerate(m))
        terms.append((m, random_poly(rng, 2)))
    return MSeries(gens, gens.basis.zero(), tuple(terms), INF)


def test_criterion_6_transport_isomorphism():
    rng = random.Random(223)
    failures = 0
    trials = 0
    for tag in ("one", "mixed"):
        gens = _gens_for(tag)
        for _ in range(100):
            trials += 1
            a = _random_member(rng, gens)
            b = _random_member(rng, gens)
            f, g = iota_inv(a), iota_inv(b)
            checks = [
                iota(f, gens) == a,                       # round trip
                iota(f * g, gens) == a * b,               # ring map
                iota(f + g, gens) == a + b,
                iota(f.delta(), gens) == a.hat_delta(),   # derivation transport
            ]
            if not all(checks):
                failures += 1
    ok = failures == 0 and trials == 200
    _verdict(6, ok, f"{trials} transport trials, {failures} failures")


def test_criterion_7_norm_lemma_suite():
    t0 = time.perf_counter()
    rng = random.Random(227)
    lemma6_fail = 0
    for tag in ("one", "mixed"):
        gens = _gens_for(tag)
        p = NormParams(R=2, s=1, Kcal=0)
        for _ in range(100):
            if not check_lemma6(_random_member(rng, gens), _random_member(rng, gens), p).passed:
                lemma6_fail += 1

    from dulac.mseries import MSeries
    from dulac.series import INF

    gens = _gens_for("one")
    base = gens.basis.zero()
    Kcal = 2
    lemma5_fail = 0
    for _ in range(100):
        level = rng.randint(0, 1)
        j = level + rng.randint(0, 1)
        p = NormParams(R=3, s=1, Kcal=Kcal, j=level)
        l = (max(j - level, 0) + rng.randint(0, 1),)
        terms = []
        for _ in range(rng.randint(1, 3)):
            m = (rng.randint(1, 3),)
            terms.append((m, random_poly(rng, min(2, Kcal * m[0]))))
        g = MSeries(gens, base, tuple(terms), INF)
        a = random_poly(rng, min(2, Kcal * l[0])) if l[0] else TPoly.ONE
        if not check_lemma5(a, l, j, g, p).passed:
            lemma5_fail += 1

    rejects = 0
    for i in range(20):
        level = rng.randint(0, 1)
        p = NormParams(R=3, s=1, Kcal=Kcal, j=level)
        g = MSeries(gens, base, (((1,), TPoly.ONE),), INF)
        try:
            if i % 2 == 0:
                # slope gate: Re<l,r> = 0 < (j - level) s
                check_lemma5(TPoly.ONE, (0,), level + 1, g, p)
            else:
                # degree gate: deg a = 5 > Kcal |l| = 2
                check_lemma5(TPoly.of(0, 0, 0, 0, 0, 1), (1,), level, g, p)
        except PreconditionViolated:
            rejects += 1

    # gamma cross-checks at the stated tolerances
    gamma_ok = True
    with mpmath.workprec(256):
        want = mpmath.sqrt(mpmath.pi / mpmath.sinh(mpmath.pi))
        got = gamma_abs(ExactScalar(Fraction(1), Fraction(1)))
        gamma_ok = gamma_ok and abs(got - want) / want < 1e-12
    with mpmath.workprec(128):
        for _ in range(50):
            z = ExactScalar(Fraction(rng.randint(1, 16), 4), Fraction(rng.randint(-16, 16), 4))
            lhs = gamma_abs(z + ExactScalar.of(1))
            rhs = mpmath.sqrt(mpmath.mpf(float(z.abs_squared()))) * gamma_abs(z)
            gamma_ok = gamma_ok and abs(lhs - rhs) / rhs < 1e-11
        for z in (100, 1000, 10000):
            r = gamma_abs(z) / gamma_abs(Fraction(2 * z + 1, 2)) * mpmath.sqrt(z)
            gamma_ok = gamma_ok and abs(r - 1) < 10.0 / z

    elapsed = time.perf_counter() - t0
    ok = (
        lemma6_fail == 0
        and lemma5_fail == 0
        and rejects == 20
        and gamma_ok
        and elapsed < 60.0
    )
    _verdict(
        7,
        ok,
        f"200 product + 100 operator estimates, 20/20 rejects, "
        f"gamma checks, {elapsed:.1f}s",
    )


def test_criterion_8_coefficient_recursion_roundtrip():
    rng = random.Random(229)
    done = 0
    failures = 0
    while done < 300:
        L = random_poly(rng, 3)
        lam = random_scalar(rng)
        b = random_poly(rng, 4)
        try:
            v = solve_coefficient(L, lam, b)
        except Resonance:
            continue
        done += 1
        # apply L(lam + d/dt) via the exact Taylor expansion of L at lam
        out = TPoly.ZERO
        d = v
        for mi in L.taylor_at(lam):
            out = out + d * mi
            d = d.deriv()
        if out != b or v.degree != b.degree:
            failures += 1
    ok = failures == 0
    _verdict(8, ok, f"300 round-trips of the coefficient recursion, {failures} failures")
