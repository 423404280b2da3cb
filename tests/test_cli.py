"""End-to-end command line runs over the problem corpus, in process."""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dulac import cli, errors, norms, semigroup
from dulac.exponents import Exponent
from dulac.gevrey import GevreyReport
from dulac.norms import Lemma6Report
from dulac.tpoly import TPoly

from .util import DATA, child_env, csv_text_oracle, json_text_oracle


def run(tmp_path, *argv, outdir="out"):
    out = tmp_path / outdir
    code = cli.main([*argv, "--output-dir", str(out)])
    return code, out


def read(out: Path, name: str) -> str:
    # read_text would translate the CSV line endings; keep the exact bytes
    return (out / name).read_bytes().decode("utf-8")


def payload(out: Path, name: str) -> dict:
    return json.loads(read(out, name))


# -- solve -----------------------------------------------------------------


def test_solve_euler(tmp_path):
    code, out = run(tmp_path, "solve", str(DATA / "euler.json"))
    assert code == 0
    data = payload(out, "solution.json")
    assert data["command"] == "solve"
    assert len(data["solution"]["terms"]) == 25
    assert data["solution"]["terms"][4] == {"exp": ["5/1"], "poly": ["24/1"]}
    csv_text = read(out, "terms.csv")
    lines = csv_text.split("\r\n")
    assert lines[0] == "k,exp,re_lambda,im_lambda,deg_c,poly"
    assert lines[1] == "1,1/1,1,0,0,1/1"
    assert len(lines) == 27  # header + 25 + trailing
    assert csv_text.count("\n") == csv_text.count("\r\n")


def test_solve_cutoff_flag_overrides(tmp_path):
    code, out = run(tmp_path, "solve", str(DATA / "euler.json"), "--cutoff", "5")
    assert code == 0
    assert len(payload(out, "solution.json")["solution"]["terms"]) == 4


def test_solve_log_prefix_cases(tmp_path, capsys):
    for name in ("resonant_logprefix.json", "resonant_double.json"):
        code, out = run(tmp_path, "solve", str(DATA / name), outdir=name)
        assert code == 0
        data = payload(out, "solution.json")
        assert data["residual"]["terms"] == []
        assert "residual valuation: inf" in capsys.readouterr().out


def test_solve_cutoff_past_the_double_range(tmp_path, capsys):
    # no double holds 10^400: solution.json and the report line give the
    # exact "p/q" string
    big = "1" + "0" * 400
    code, out = run(tmp_path, "solve", str(DATA / "resonant_double.json"), "--cutoff", big)
    assert code == 0
    assert payload(out, "solution.json")["solution"]["cutoff"] == f"{big}/1"
    assert capsys.readouterr().out.startswith(f"solve: 1 terms below cutoff {big}/1\n")


def test_solve_serializes_each_term_once(tmp_path, monkeypatch):
    # a solved term's literals serve solution.json, its history entry and
    # terms.csv alike: one serialize call per term of each series written,
    # per exponent and polynomial of the linearization, and per history b
    counts = {Exponent: 0, TPoly: 0}

    def counted(cls):
        serialize = cls.serialize

        def wrapper(self):
            counts[cls] += 1
            return serialize(self)
        return wrapper

    for cls in counts:
        monkeypatch.setattr(cls, "serialize", counted(cls))
    code, out = run(tmp_path, "solve", str(DATA / "semigroup_2d.json"), "--cutoff", "7")
    assert code == 0
    data = payload(out, "solution.json")
    lin = data["linearization"]
    terms = len(data["solution"]["terms"]) + len(data["residual"]["terms"])
    assert counts[Exponent] == terms + 1 + sum(e is not None for e in lin["nu_secondary"]) == 21 + 52 + 2
    assert counts[TPoly] == terms + 1 + sum(b is not None for b in lin["B"]) + len(data["history"]) == 21 + 52 + 2 + 20
    assert [[h["lambda"], h["c"]] for h in data["history"]] == [
        [t["exp"], t["poly"]] for t in data["solution"]["terms"][-len(data["history"]):]
    ]


def test_solve_resonance_exits_3(tmp_path, capsys):
    code, _ = run(tmp_path, "solve", str(DATA / "resonant.json"))
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "lambda = (1)" in err


def test_solve_hypothesis_violation_exits_2(tmp_path, capsys):
    code, _ = run(tmp_path, "solve", str(DATA / "hypoviol.json"))
    assert code == 2
    assert "nonconstant polynomial" in capsys.readouterr().err


def test_solve_degenerate_top_derivative_exits_2(tmp_path, capsys):
    code, _ = run(tmp_path, "solve", str(DATA / "degenerate.json"))
    assert code == 2
    assert "dF/dy_2" in capsys.readouterr().err


def test_solve_undecidable_exits_4(tmp_path, capsys):
    code, _ = run(tmp_path, "solve", str(DATA / "undecidable.json"))
    assert code == 4
    assert "precision" in capsys.readouterr().err


def test_schema_error_exits_5(tmp_path, capsys):
    code, _ = run(tmp_path, "solve", str(DATA / "bad_schema.json"))
    assert code == 5
    assert "ode" in capsys.readouterr().err
    code2, _ = run(tmp_path, "solve", str(DATA / "no_such_file.json"))
    assert code2 == 5


def test_bad_precision_flag_exits_5(tmp_path, capsys):
    assert run(tmp_path, "solve", str(DATA / "euler.json"), "--precision", "32")[0] == 5
    assert run(tmp_path, "solve", str(DATA / "euler.json"), "--precision", "2048")[0] == 5
    # enclosures take their radius from the basis literals: there is no
    # working precision to set, by flag or by problem key
    assert run(tmp_path, "solve", str(DATA / "euler.json"), "--precision", "128")[0] == 5
    data = json.loads((DATA / "euler.json").read_text(encoding="utf-8"))
    data["precision"] = 128
    path = tmp_path / "precision.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert run(tmp_path, "solve", str(path))[0] == 5
    err = capsys.readouterr().err
    assert "unrecognized arguments: --precision 128" in err
    assert "unknown keys ['precision']" in err
    assert "Traceback" not in err


def test_bad_R_flag_exits_5(tmp_path):
    assert run(tmp_path, "verify", str(DATA / "euler.json"), "--R", "1")[0] == 5


@pytest.mark.parametrize("flag, value, message", [
    ("--cutoff", "-1", "must be positive, got -1"),
    ("--cutoff", "0", "must be positive, got 0"),
    ("--cutoff", "inf", "must be finite, got inf"),
    ("--cutoff", "nan", "must be finite, got nan"),
    ("--R", "1", "must exceed 1, got 1"),
    ("--R", "-2", "must exceed 1, got -2"),
    ("--R", "nan", "must be finite, got nan"),
    ("--R", "inf", "must be finite, got inf"),
])
def test_bad_flag_value_names_the_flag(tmp_path, capsys, flag, value, message):
    # a bad value from a flag is blamed on the flag, not on the problem file
    code, out = run(tmp_path, "verify", str(DATA / "euler.json"), flag, value)
    assert code == 5
    assert capsys.readouterr().err == f"error: {flag} {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("key, value, message", [
    ("cutoff", -1, "must be positive, got -1"),
    ("cutoff", 0.0, "must be positive, got 0.0"),
    ("R", 1, "must exceed 1, got 1"),
    ("R", "2", "must be a number, got '2'"),
    ("s_override", -1, "must be positive, got -1"),
])
def test_bad_problem_value_names_the_file(tmp_path, capsys, key, value, message):
    # the same checks on a problem file value name the file and the key
    data = json.loads((DATA / "euler.json").read_text(encoding="utf-8"))
    data[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert run(tmp_path, "verify", str(path))[0] == 5
    assert capsys.readouterr().err == f"error: problem file: {key} {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--cutoff", "abc"], "not a number: 'abc'"),
        (["--bogus"], "unrecognized arguments: --bogus"),
    ],
    ids=["non_numeric_cutoff", "unknown_flag"],
)
def test_malformed_flag_exits_5(tmp_path, capsys, argv, message):
    code, out = run(tmp_path, "solve", str(DATA / "euler.json"), *argv)
    assert code == 5
    err = capsys.readouterr().err
    assert message in err and err.startswith("usage: dulac")
    assert "Traceback" not in err
    assert not out.exists()


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--help"])
    assert exc.value.code == 0
    assert "--cutoff" in capsys.readouterr().out


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda d: d["ode"]["terms"][0].update(coeff="1/0"), "ode: terms[0].coeff"),
        (lambda d: d["prefix"][0].update(exp=["1/0"]), "prefix[0].exp"),
        (lambda d: d["prefix"][0].update(poly=["1/1+1/0i"]), "prefix[0].poly"),
        (lambda d: d.update(generators=[["1/0"]]), "generators[0]"),
        (lambda d: d.update(basis=["1/0"]), "basis"),
        (lambda d: d["ode"].update(n="1"), "ode: n must be an integer"),
        (lambda d: d["ode"].update(degree="3"), "ode: degree must be an integer"),
        (lambda d: d["ode"]["terms"][0].update(x=1.5), "ode: terms[0].x must be an integer"),
        (lambda d: d["ode"]["terms"][0].update(y=[1.5, 0]), "ode: terms[0].y[0] must be an integer"),
        (lambda d: d["prefix"][0].update(exp=[0.1]), "prefix[0].exp"),
        (lambda d: d["prefix"][0].update(exp=[True]), "prefix[0].exp"),
        (lambda d: d.update(generators=[[0.5]]), "generators[0]"),
        (lambda d: d.update(generators=[[True]]), "generators[0]"),
        (lambda d: d["prefix"][0].update(poly="1"), "prefix[0].poly"),
        (lambda d: d["prefix"][0].update(poly="12"), "prefix[0].poly"),
        (lambda d: d["prefix"][0].update(poly={"1": 0}), "prefix[0].poly"),
        # F = 0 is not an equation, and with no term to bound it n may be huge
        (lambda d: d.update(ode={"n": 1, "terms": []}), "ode: ODESpec: the equation has no terms"),
        (lambda d: d.update(ode={"n": 10**12, "terms": []}), "ode: ODESpec: the equation has no terms"),
        # the substitution's set-up alone would build 500 billion update steps
        (lambda d: d["ode"]["terms"][0].update(y=[0, 1000000]), "above the limit 10000"),
        # an edit that returns bytes replaces the whole file
        (lambda d: b"\xff\xfe", "problem file: cannot read"),
        (lambda d: b"[" * 100000 + b"]" * 100000, "problem file: invalid JSON"),
        (lambda d: b'{"cutoff": ' + b"1" * 5000 + b"}", "problem file: invalid JSON"),
        # the float layer runs at one fixed accuracy: no key sets it
        (lambda d: d.update(tolerance=1e-12), "unknown keys ['tolerance']"),
    ],
    ids=[
        "zero_denominator_coeff", "zero_denominator_prefix_exp", "zero_denominator_prefix_poly",
        "zero_denominator_generator", "zero_denominator_basis",
        "string_n", "string_degree", "float_x", "float_y",
        "float_prefix_exp", "bool_prefix_exp", "float_generator", "bool_generator",
        "string_prefix_poly", "digit_string_prefix_poly", "object_prefix_poly",
        "no_terms", "no_terms_huge_n", "huge_y_exponent", "not_utf8", "nested_too_deeply",
        "huge_int_literal", "tolerance_key",
    ],
)
def test_malformed_problem_file_exits_5(tmp_path, capsys, edit, field):
    data = json.loads((DATA / "euler.json").read_text(encoding="utf-8"))
    raw = edit(data)
    path = tmp_path / "malformed.json"
    path.write_bytes(raw if raw is not None else json.dumps(data).encode("utf-8"))
    for command in cli._COMMANDS:
        code, out = run(tmp_path, command, str(path))
        err = capsys.readouterr().err
        assert code == 5, command
        assert field in err and "Traceback" not in err
        assert not out.exists()


@pytest.mark.parametrize("literal", [" 3 ", "1.5", "1e2", "1_0"])
@pytest.mark.parametrize(
    "place, field",
    [
        (lambda d, v: d["ode"]["terms"][0].update(coeff=v), "ode: terms[0].coeff"),
        (lambda d, v: d["prefix"][0].update(exp=[v]), "prefix[0].exp"),
        (lambda d, v: d["prefix"][0].update(poly=[v]), "prefix[0].poly"),
        (lambda d, v: d.update(generators=[[v]]), "generators[0]"),
    ],
    ids=["ode_coeff", "prefix_exp", "prefix_poly", "generator"],
)
def test_non_rational_literal_exits_5(tmp_path, capsys, place, field, literal):
    # scalars and exponent coordinates are "a" or "a/b" literals: no spaces,
    # decimal points, exponents or digit separators
    data = json.loads((DATA / "euler.json").read_text(encoding="utf-8"))
    place(data, literal)
    path = tmp_path / "literal.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    for command in cli._COMMANDS:
        code, out = run(tmp_path, command, str(path))
        err = capsys.readouterr().err
        assert code == 5, command
        assert field in err and "Traceback" not in err
        assert not out.exists()


_EXIT_CODES = {
    "DulacError": 2, "SchemaError": 5, "UndecidableComparison": 4, "BasisMismatch": 2,
    "CutoffIncrease": 2, "NonpositiveValuation": 2, "DomainError": 2,
    "HypothesisViolation": 2, "AllDerivativesVanish": 2, "DerivativeYnZeroWarning": 2,
    "Resonance": 3, "NonProgressingResidual": 2, "LinearDataDrift": 2,
    "IndeterminateRoot": 4, "SlopeUndetermined": 2, "DependentGenerators": 2,
    "NonpositiveRealPart": 2, "ExponentOutsideSemigroup": 2, "PreconditionViolated": 2,
    "ExactValueRequired": 4,
}


def test_every_error_class_exits_with_its_code(tmp_path, capsys, monkeypatch):
    classes = {
        name: cls for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, (errors.DulacError, errors.DerivativeYnZeroWarning))
    }
    assert {name: cls.exit_code for name, cls in classes.items()} == _EXIT_CODES
    for name, cls in classes.items():
        def fail(args, cls=cls):
            raise cls(f"raised {cls.__name__}")

        monkeypatch.setitem(cli._COMMANDS, "solve", fail)
        assert run(tmp_path, "solve", str(DATA / "euler.json"))[0] == _EXIT_CODES[name]
        assert capsys.readouterr().err == f"error: raised {name}\n"


@pytest.mark.parametrize("command", ["solve", "check-norms"])
def test_output_dir_that_is_a_file_exits_5(tmp_path, capsys, command):
    blocker = tmp_path / "out"
    blocker.write_text("not a directory", encoding="utf-8")
    for outdir in ("out", "out/sub"):
        code, _ = run(tmp_path, command, str(DATA / "euler.json"), outdir=outdir)
        err = capsys.readouterr().err
        assert code == 5
        assert err.startswith(f"error: --output-dir: cannot write {tmp_path / outdir}")
        assert "Traceback" not in err
    assert blocker.read_text(encoding="utf-8") == "not a directory"


# -- analyze ------------------------------------------------------------------


def test_analyze_euler(tmp_path):
    code, out = run(tmp_path, "analyze", str(DATA / "euler.json"))
    assert code == 0
    data = payload(out, "analysis.json")
    assert data["s"] == "1"
    assert data["linearization"]["ell"] == 0
    assert data["linearization"]["A"] == ["-1/1", "0/1"]
    assert data["linearization"]["nu"] == ["0/1"]
    assert data["conditions"]["minimal_m"] is None  # single prefix term, gap fails
    assert data["conditions"]["roots_ok"] is True


def test_analyze_no_prefix_has_null_conditions(tmp_path):
    code, out = run(tmp_path, "analyze", str(DATA / "resonant.json"))
    assert code == 0
    data = payload(out, "analysis.json")
    assert data["conditions"] is None
    assert data["s"] == "inf"  # top derivative participates in the leading data


# -- verify ----------------------------------------------------------------------


def _check_gevrey_csv(out, data, abscissa):
    """gevrey.csv is the JSON rows, each cell the repr of the row's value,
    and each envelope is C_fit * A_fit^x at the row's abscissa x."""
    lines = read(out, "gevrey.csv").split("\r\n")
    assert lines.pop() == ""
    columns = lines[0].split(",")
    assert columns == ["k", "re_lambda", "im_lambda", "deg_c", "norm_R", "gamma_abs", "rho", "envelope_Ck"]
    assert len(lines) == len(data["rows"]) + 1 > 3
    for line, row in zip(lines[1:], data["rows"]):
        assert line.split(",") == [repr(row[c]) for c in columns]
        want = data["C_fit"] * data["A_fit"] ** abscissa(row)
        assert row["envelope_Ck"] == pytest.approx(want, rel=1e-12)


def test_verify_euler(tmp_path):
    code, out = run(tmp_path, "verify", str(DATA / "euler.json"))
    assert code == 0
    data = payload(out, "gevrey.json")
    assert data["verdict"] == "GevreyBounded"
    assert data["s"] == "1"
    assert abs(data["A_fit"] - 1) < 1e-9
    assert all(abs(row["rho"] - 1) < 1e-9 for row in data["rows"])
    _check_gevrey_csv(out, data, lambda row: row["k"])


def test_verify_convergent(tmp_path):
    code, out = run(tmp_path, "verify", str(DATA / "convergent.json"))
    assert code == 0
    data = payload(out, "gevrey.json")
    assert data["verdict"] == "ConvergentCandidate"
    assert data["s"] == "inf"
    assert abs(data["radius_estimate"] - 1.0) < 1e-9
    assert all(row["gamma_abs"] == 1.0 for row in data["rows"])
    _check_gevrey_csv(out, data, lambda row: row["re_lambda"])


def test_verify_builds_each_gevrey_row_once(tmp_path, monkeypatch):
    # gevrey.csv is written from the rows of gevrey.json, so each row's
    # envelope and float conversions are computed once per job
    calls = []
    envelope_at = GevreyReport.envelope_at

    def counted(self, row):
        calls.append(row.k)
        return envelope_at(self, row)

    monkeypatch.setattr(GevreyReport, "envelope_at", counted)
    code, out = run(tmp_path, "verify", str(DATA / "euler.json"))
    assert code == 0
    data = payload(out, "gevrey.json")
    assert calls == [row["k"] for row in data["rows"]]
    _check_gevrey_csv(out, data, lambda row: row["k"])


# -- reduce ------------------------------------------------------------------------


def test_reduce_with_prefix_uses_prefix_length(tmp_path, capsys):
    code, out = run(tmp_path, "reduce", str(DATA / "euler.json"))
    assert code == 0
    data = payload(out, "reduced.json")
    assert data["m"] == 1
    assert data["violations"]  # gap condition fails at m = 1
    assert "violations:" in capsys.readouterr().out


def test_reduce_with_a_prefix_exponent_past_the_double_range(tmp_path):
    # the shifts by lambda_m = 10^400 keep the inf cutoffs inf; the gap
    # condition fails and is listed, not raised
    path = _euler_with(tmp_path, "huge.json", prefix=[{"exp": ["1" + "0" * 400 + "/1"], "poly": ["1/1"]}])
    code, out = run(tmp_path, "reduce", str(path))
    assert code == 0
    data = payload(out, "reduced.json")
    assert data["lambda_m"] == ["1" + "0" * 400 + "/1"]
    assert any("gap condition" in v for v in data["violations"])


def test_reduce_without_prefix_picks_minimal_m(tmp_path):
    code, out = run(tmp_path, "reduce", str(DATA / "convergent.json"))
    assert code == 0
    data = payload(out, "reduced.json")
    assert data["m"] == 2
    assert data["violations"] == []


@pytest.mark.parametrize("s_override, m, tau", [(None, 4, "1/1"), (0.25, 2, "1/4")])
def test_reduce_without_prefix_chooses_m_under_the_runs_s(tmp_path, s_override, m, tau):
    # euler's gap condition Re lambda_m > Re nu_1 + 2 tau, tau = s, holds
    # from lambda = 4 under its slope s = 1 and from lambda = 2 under s = 1/4
    path = _euler_with(tmp_path, "no_prefix.json", prefix=None, s_override=s_override)
    code, out = run(tmp_path, "reduce", str(path), "--cutoff", "6")
    assert code == 0
    data = payload(out, "reduced.json")
    assert data["m"] == m
    assert data["violations"] == []
    assert data["tau"] == [tau]


@pytest.mark.parametrize(
    "command, prefix, code",
    [
        ("analyze", True, 2), ("reduce", True, 2), ("reduce", False, 2),
        ("verify", True, 0), ("check-norms", True, 0),
    ],
)
def test_s_override_inf_with_ell_below_n(tmp_path, capsys, command, prefix, code):
    # euler has ell = 0 < n = 1, so tau = (n - ell) s is infinite at s = +inf:
    # the splitting conditions and the reduced equation cannot be formed,
    # while the growth fit and the norm harness need no tau
    edits = {"s_override": "inf"} if prefix else {"s_override": "inf", "prefix": None}
    path = _euler_with(tmp_path, "inf.json", **edits)
    status, out = run(tmp_path, command, str(path), "--cutoff", "5")
    err = capsys.readouterr().err
    assert status == code
    if code:
        assert err == "error: tau = (n - ell) s is infinite: growth order s = inf with ell = 0 < n = 1\n"
        assert not out.exists()
    else:
        assert err == ""
        assert out.exists()


# -- iota --------------------------------------------------------------------------


def test_iota_euler(tmp_path):
    code, out = run(tmp_path, "iota", str(DATA / "euler_gens.json"))
    assert code == 0
    data = payload(out, "mseries.json")
    assert data["m"] == 1
    assert data["lambda_base"] == ["1/1"]
    assert data["round_trip_exact"] is True
    assert data["K_fit"] == "0"
    assert data["gaps"][0] == {"k": 2, "gap": ["1/1"], "m": [1]}
    assert len(data["mseries"]["terms"]) == 8  # k = 2..9 below cutoff 10


def test_iota_decomposes_each_gap_once(tmp_path, monkeypatch):
    # every decomposition is one Hermite reduction: count the decompositions
    calls = []
    decompose = semigroup.decompose
    monkeypatch.setattr(semigroup, "decompose", lambda lam, gens: calls.append(lam) or decompose(lam, gens))
    code, out = run(tmp_path, "iota", str(DATA / "semigroup_2d.json"))
    assert code == 0
    gaps = payload(out, "mseries.json")["gaps"]
    assert len(gaps) > 10 and len(calls) == len(gaps)


def test_iota_requires_generators(tmp_path, capsys):
    code, _ = run(tmp_path, "iota", str(DATA / "euler.json"))
    assert code == 5
    assert "generators" in capsys.readouterr().err


def test_iota_gap_outside_generators_exits_2(tmp_path, capsys):
    src = json.loads((DATA / "euler_gens.json").read_text(encoding="utf-8"))
    src["generators"] = [["2/1"]]
    bad = tmp_path / "bad_gens.json"
    bad.write_text(json.dumps(src), encoding="utf-8")
    code, _ = run(tmp_path, "iota", str(bad))
    assert code == 2
    assert "does not decompose" in capsys.readouterr().err


# -- check-norms ----------------------------------------------------------------------


def test_check_norms_passes(tmp_path):
    code, out = run(tmp_path, "check-norms", str(DATA / "euler.json"), "--seed", "3")
    assert code == 0
    data = payload(out, "normcheck.json")
    assert data["all_pass"] is True
    assert data["lemma6"] == {"trials": 40, "failures": 0}
    assert data["lemma5"] == {"trials": 25, "failures": 0}
    assert data["lemma5_rejects"] == {"trials": 8, "failures": 0}
    assert data["majorant_monotone"] == {"trials": 5, "failures": 0}
    assert data["seed"] == 3


def test_check_norms_two_generators(tmp_path):
    # kappa = 2: a zero multi-index is fixed up by setting exactly one coordinate
    code, out = run(tmp_path, "check-norms", str(DATA / "semigroup_2d.json"), "--seed", "6484")
    assert code == 0
    assert payload(out, "normcheck.json")["all_pass"] is True


@pytest.mark.parametrize("problem, s", [("euler_gens.json", 3), ("semigroup_2d.json", 5)])
def test_check_norms_terminates_for_unreachable_slope_gate(tmp_path, problem, s):
    """s_override above Re<(2,...,2),r>: no drawn l meets the slope gate of
    j = level + 1, so those trials check j = level and the run ends."""
    data = json.loads((DATA / problem).read_text(encoding="utf-8"))
    data["s_override"] = s
    path = tmp_path / problem
    path.write_text(json.dumps(data), encoding="utf-8")
    env = child_env()
    out = subprocess.run(
        [sys.executable, "-m", "dulac", "check-norms", str(path), "--seed", "0",
         "--output-dir", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert "Traceback" not in out.stderr
    assert payload(tmp_path / "out", "normcheck.json")["all_pass"] is True


def test_check_norms_regression_exits_1(tmp_path, monkeypatch):
    def broken(g1, g2, p):
        return Lemma6Report(lhs=1, rhs=0, C_used=1, passed=False, splits=1)

    monkeypatch.setattr(norms, "check_lemma6", broken)
    code, out = run(tmp_path, "check-norms", str(DATA / "euler.json"))
    assert code == 1
    assert payload(out, "normcheck.json")["all_pass"] is False


# -- suggest-generators ------------------------------------------------------------------


def test_suggest_generators(tmp_path):
    code, out = run(tmp_path, "suggest-generators", str(DATA / "euler.json"))
    assert code == 0
    data = payload(out, "generators.json")
    assert data["suggested"] == [["1/1"]]
    assert "heuristic" in data["note"]


# -- output shape and determinism -------------------------------------------------------


def test_format_json_echoes_artifact(tmp_path, capsys):
    code, out = run(tmp_path, "analyze", str(DATA / "euler.json"), "--format", "json")
    assert code == 0
    assert capsys.readouterr().out == read(out, "analysis.json")


def test_format_csv_echoes_csv_artifact(tmp_path, capsys):
    code, out = run(tmp_path, "solve", str(DATA / "euler.json"), "--format", "csv")
    assert code == 0
    assert capsys.readouterr().out == read(out, "terms.csv")


def test_artifacts_deterministic(tmp_path):
    pairs = [
        ("solve", "euler.json", ["solution.json", "terms.csv"]),
        ("verify", "convergent.json", ["gevrey.json", "gevrey.csv"]),
        ("check-norms", "euler.json", ["normcheck.json"]),
    ]
    for cmd, src, names in pairs:
        _, out1 = run(tmp_path, cmd, str(DATA / src), "--seed", "11", outdir=f"a-{cmd}")
        _, out2 = run(tmp_path, cmd, str(DATA / src), "--seed", "11", outdir=f"b-{cmd}")
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_json_artifacts_sorted_and_newline_terminated(tmp_path):
    _, out = run(tmp_path, "analyze", str(DATA / "euler.json"))
    text = read(out, "analysis.json")
    assert text.endswith("\n") and not text.endswith("\n\n")
    data = json.loads(text)
    assert text == json.dumps(data, sort_keys=True, indent=2) + "\n"


def _euler_with(tmp_path, name: str, **edits) -> Path:
    data = json.loads((DATA / "euler.json").read_text(encoding="utf-8"))
    data.update(edits)
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "command, edits, argv, artifact",
    [
        # 10^-400 delta y - y + x = 0 with prefix x: a root of L at 10^400
        ("analyze", {"ode": {"n": 1, "terms": [
            {"coeff": "1/1" + "0" * 400, "x": 0, "y": [0, 1]},
            {"coeff": "-1/1", "x": 0, "y": [1, 0]},
            {"coeff": "1/1", "x": 1, "y": [0, 0]},
        ]}}, [], "analysis.json"),
        # |Gamma(lambda_k / s)| past the double range at s = 10^-4
        ("verify", {"s_override": 1e-4}, ["--cutoff", "5"], "gevrey.json"),
        # the weight R = 10^400 itself
        ("verify", {}, ["--R", "1" + "0" * 400], "gevrey.json"),
        # a prefix exponent of 10^400: the gap margin Re lambda_m - 3 itself
        ("analyze", {"prefix": [{"exp": ["1" + "0" * 400 + "/1"], "poly": ["1/1"]}]}, [], "analysis.json"),
        # delta y - 10^400 y = 0 solved by its prefix x^(10^400): Re lambda_1
        ("verify", {"ode": {"n": 1, "terms": [
            {"coeff": "1/1", "x": 0, "y": [0, 1]},
            {"coeff": "-1" + "0" * 400 + "/1", "x": 0, "y": [1, 0]},
        ]}, "prefix": [{"exp": ["1" + "0" * 400 + "/1"], "poly": ["1/1"]}]}, ["--cutoff", "1" + "0" * 401],
         "gevrey.json"),
    ],
    ids=["analyze_huge_root", "verify_huge_gamma", "verify_huge_R", "analyze_huge_gap", "verify_huge_lambda"],
)
def test_non_finite_value_exits_2_and_writes_nothing(tmp_path, capsys, command, edits, argv, artifact):
    # JSON has no Infinity or NaN: such a value is out of the artifacts' range
    path = _euler_with(tmp_path, "huge.json", **edits)
    code, out = run(tmp_path, command, str(path), *argv, "--format", "json")
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (
        f"error: {artifact}: a value lies outside the double range, "
        "and JSON has no infinite or NaN number\n"
    )
    assert captured.out == ""
    assert not out.exists()


# -- exact values past the double range ------------------------------------

_BIG = 10**400


def _probe(tmp_path, terms, prefix=None, basis=("1",)) -> Path:
    # the equation sum coeff x^p y^q0 (delta y)^q1 = 0 over (coeff, p, q)
    data = {"basis": list(basis), "cutoff": 5,
            "ode": {"n": 1, "terms": [{"coeff": c, "x": p, "y": q} for c, p, q in terms]}}
    if prefix is not None:
        data["prefix"] = [{"exp": exp, "poly": ["1/1"]} for exp in prefix]
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


@pytest.mark.parametrize("command", ["solve", "verify", "reduce", "analyze"])
def test_leading_exponent_past_the_double_range(tmp_path, capsys, command):
    # x^B delta y - 2 x^B y + x^(B+1) = 0, B = 10^400: nu = B and y = x
    # solves it, so the residual vanishes and its cutoff is inf
    path = _probe(tmp_path, [("1/1", _BIG, [0, 1]), ("-2/1", _BIG, [1, 0]), ("1/1", _BIG + 1, [0, 0])])
    code, out = run(tmp_path, command, str(path))
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    if command == "solve":
        assert payload(out, "solution.json")["solution"] == {
            "cutoff": 5.0, "terms": [{"exp": ["1/1"], "poly": ["1/1"]}]}
    if command == "analyze":
        assert f"nu: {_BIG}/1 (Re = {_BIG}/1)\n" in captured.out


def test_residual_valuation_past_the_double_range(tmp_path, capsys):
    # delta y - 2 y + x^B = 0: the residual's only term lies past the cutoff
    path = _probe(tmp_path, [("1/1", 0, [0, 1]), ("-2/1", 0, [1, 0]), ("1/1", _BIG, [0, 0])])
    code, out = run(tmp_path, "solve", str(path))
    assert code == 0
    assert capsys.readouterr().out == f"solve: 0 terms below cutoff 5.0\nresidual valuation: {_BIG}/1\n"
    assert payload(out, "solution.json")["residual"]["terms"] == [{"exp": [f"{_BIG}/1"], "poly": ["1/1"]}]


@pytest.mark.parametrize("command, code, line", [
    ("solve", 0, f"residual valuation: {_BIG + 1}/1"),
    ("reduce", 0, f"tau (Re): {_BIG}/1"),
    ("analyze", 2, None),
    ("verify", 2, None),
], ids=["solve", "reduce", "analyze", "verify"])
def test_secondary_exponent_past_the_double_range(tmp_path, capsys, command, code, line):
    # x^B delta y - y + x = 0 with prefix x: s = tau = B, and the residual
    # is x^(B+1); analysis.json's gap margin 1 - 3B and gevrey.json's
    # |Gamma(1 / B)| lie past the double range
    path = _probe(tmp_path, [("1/1", _BIG, [0, 1]), ("-1/1", 0, [1, 0]), ("1/1", 1, [0, 0])], prefix=[["1/1"]])
    assert run(tmp_path, command, str(path))[0] == code
    captured = capsys.readouterr()
    if code == 0:
        assert captured.err == ""
        assert f"\n{line}\n" in captured.out
    else:
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_undecidable_sign_with_a_radius_past_the_double_range(tmp_path, capsys):
    # over [1, 1.41421356237] the prefix exponent -141421356237 10^389 +
    # 10^400 sqrt(2) has midpoint 0 and a radius of 5 10^388
    path = _probe(tmp_path, [("1/1", 0, [0, 1]), ("-2/1", 0, [1, 0]), ("1/1", 1, [0, 0])],
                  prefix=[[f"-{141421356237 * 10**389}/1", f"{_BIG}/1"]], basis=("1", "1.41421356237"))
    for command in ("solve", "analyze"):
        assert run(tmp_path, command, str(path))[0] == 4
        err = capsys.readouterr().err
        assert err.startswith("error: sign of re(") and err.count("\n") == 1
        assert "undecidable: enclosure radius inf, set by the decimal precision" in err


# -- the artifact writers against the standard library ----------------------

# non-ASCII, control and quote-bearing characters, and the CSV specials
_TEXT = st.text(st.sampled_from(list('ab Z09,;"\\\r\n\t\x00\x1f\x7f\u00e9\u20ac\U0001d11e/-+.')) | st.characters(), max_size=8)
_NUMBER = (
    st.integers()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 0.0, 5e-324, 1e300, -1e300, 1.5, 1e16, 1e-7])
)
_SCALAR = st.none() | st.booleans() | _NUMBER | _TEXT
_JSON = st.recursive(
    _SCALAR,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_JSON)
@example({"a": [], "b": {}, "c": (), "d": [True, 1, False, 0, None], "\u00e9\"\n": [-0.0, 5e-324, 1e300, 10**400]})
def test_json_writer_matches_json_dumps(value):
    assert cli._json_text(value, "x.json") == json_text_oracle(value)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_json_writer_refuses_non_finite_numbers(bad):
    with pytest.raises(errors.DomainError, match="^x.json: a value lies outside the double range"):
        cli._json_text({"rows": [{"v": bad}]}, "x.json")


@pytest.mark.parametrize("value", [{1: "a"}, {("a",): 1}, {"v": Fraction(1, 3)}, [{1, 2}], {"v": b"ab"}])
def test_json_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        cli._json_text(value, "x.json")


# the csv module before Python 3.11 refuses a NUL in a field, so the oracle
# draws none; no CSV artifact field can hold one
_CSV_TEXT = st.text(
    st.sampled_from(list('ab Z09,;"\\\r\n\t\x1f\x7f\u00e9\u20ac\U0001d11e/-+.')) | st.characters(exclude_characters="\x00"),
    max_size=8,
)
_FIELD = st.none() | _CSV_TEXT | st.integers() | st.floats(allow_nan=False) | st.booleans()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(2, 6).flatmap(lambda n: st.tuples(
    st.lists(_CSV_TEXT, min_size=n, max_size=n),
    st.lists(st.lists(_FIELD, min_size=n, max_size=n), max_size=4),
)))
@example((["k", "poly"], [[1, 'a,b'], ['say "hi"', "x\r\ny"], [None, ""], ["\r", "\n"]]))
def test_csv_writer_matches_csv_module(table):
    header, rows = table
    assert cli._csv_text(header, rows) == csv_text_oracle(header, rows)

