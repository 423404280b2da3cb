"""Batch command line front end: JSON problem files in, JSON/CSV artifacts out.

Commands
  solve               extend the prefix to the cutoff; solution.json + terms.csv
  analyze             linearization, growth order s, splitting conditions; analysis.json
  verify              solve, normalize, fit growth envelope; gevrey.json + gevrey.csv
  reduce              normal form of the equation past a prefix; reduced.json
  iota                multivariate image of the solution tail; mseries.json
  check-norms         seeded randomized norm-estimate harness; normcheck.json
  suggest-generators  heuristic semigroup generator candidates; generators.json

Exit codes
  0  success
  1  a randomized norm check failed (implementation regression)
  2  structural hypothesis violated by the problem data (non-constant leading
     derivative coefficient, vanishing top-order derivative, dependent or
     nonpositive generators, gap outside the declared semigroup, inconsistent
     prefix, undefined growth order or infinite tau), or an artifact value
     outside the double range
  3  resonance: the coefficient recursion hit a root of the characteristic
     polynomial and a prefix term must be prescribed there
  4  undecidable comparison: an exponent enclosure, whose radius the decimal
     basis literals fix, contains zero, or a characteristic root lies too
     close to a splitting boundary
  5  malformed problem file or flag

Set-up: each command imports the layers it runs, then loads the problem
(_problem), so a job loads only its own layers and the imports count as
set-up, not as the command's work.

Determinism: identical inputs and seed produce byte-identical artifacts.
JSON artifacts are strict JSON (no Infinity or NaN), ASCII, sorted keys,
two-space indent, trailing newline: the text of json.dumps with those
settings, from one writer (_json_text) that writes it in one pass.  A value
outside the double range exits 2 and no artifact is written.  CSV artifacts
are RFC 4180 with CRLF line ends and the csv module's minimal quoting, from
one writer (_csv_text); a job loads neither csv nor io.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import warnings
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii as _escape
from math import isfinite
from pathlib import Path

from .errors import (
    DerivativeYnZeroWarning,
    DomainError,
    DulacError,
    ExponentOutsideSemigroup,
    PreconditionViolated,
    SchemaError,
)
from .exponents import ExponentBasis
from .ode import ODESpec
from .scalars import decimal_rational
from .series import DOUBLE_MAX, INF, DulacSeries, cutoff_to_json, serialize_s, terms_from_json

# Codes 2-5 are the exit_code of the error raised (see dulac.errors).
EXIT_OK = 0
EXIT_CHECK_FAILED = 1

_PROBLEM_KEYS = {"ode", "basis", "prefix", "generators", "cutoff", "R", "s_override"}


def _rational(value, what: str) -> Fraction:
    """Exact rational from a JSON number or a flag value, named by what in
    an error; decimal floats read at face value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{what} must be a number, got {value!r}")
    if isinstance(value, float) and not isfinite(value):
        raise SchemaError(f"{what} must be finite, got {value!r}")
    return decimal_rational(value)


def _setting(flag, data: dict, key: str) -> tuple:
    """(value, what) of a setting: the flag's value, named as the flag, when
    the flag is given; otherwise the problem file's."""
    return (flag, f"--{key}") if flag is not None else (data.get(key), f"problem file: {key}")


class Problem:
    """Hand-validated problem file plus flag overrides."""

    def __init__(self, data: dict, args):
        if not isinstance(data, dict):
            raise SchemaError("problem file: top level must be a JSON object")
        unknown = set(data) - _PROBLEM_KEYS
        if unknown:
            raise SchemaError(f"problem file: unknown keys {sorted(unknown)}")

        entries = data.get("basis")
        if not isinstance(entries, list) or not entries or not all(isinstance(e, str) for e in entries):
            raise SchemaError("problem file: basis must be a nonempty list of entry strings")
        try:
            self.basis = ExponentBasis(entries)
        except ValueError as exc:
            raise SchemaError(f"problem file: basis ({exc})") from exc

        if "ode" not in data:
            raise SchemaError("problem file: missing required key 'ode'")
        self.ode = ODESpec.from_json(data["ode"])

        self.prefix = self._parse_prefix(data.get("prefix"))
        self.generator_exponents = self._parse_generators(data.get("generators"))

        if "cutoff" not in data and args.cutoff is None:
            raise SchemaError("problem file: missing required key 'cutoff' (and no --cutoff flag)")
        cutoff, what = _setting(args.cutoff, data, "cutoff")
        self.cutoff = _rational(cutoff, what)
        if self.cutoff <= 0:
            raise SchemaError(f"{what} must be positive, got {cutoff!r}")

        R, what = _setting(args.R, data, "R")
        self.R = None if R is None else _rational(R, what)
        if self.R is not None and self.R <= 1:
            raise SchemaError(f"{what} must exceed 1, got {R!r}")

        s = data.get("s_override")
        if s is None:
            self.s_override = None
        elif s == "inf":
            self.s_override = INF
        else:
            self.s_override = _rational(s, "problem file: s_override")
            if self.s_override <= 0:
                raise SchemaError(f"problem file: s_override must be positive, got {s!r}")

    def _parse_prefix(self, raw) -> DulacSeries:
        if raw is None:
            return DulacSeries.zero(self.basis)
        return DulacSeries(self.basis, terms_from_json(raw, self.basis, "problem file: prefix"), INF)

    def _parse_generators(self, raw):
        if raw is None:
            return None
        if not isinstance(raw, list) or not raw:
            raise SchemaError("problem file: generators must be a nonempty list of coordinate vectors")
        out = []
        for i, coords in enumerate(raw):
            if not isinstance(coords, list):
                raise SchemaError(f"problem file: generators[{i}] must be a coordinate vector")
            try:
                out.append(self.basis.parse_exponent(coords))
            except (ValueError, TypeError) as exc:
                raise SchemaError(f"problem file: generators[{i}] ({exc})") from exc
        return out

    def growth_order(self, lin):
        """The run's growth order s: s_override when given, else the slope of
        the linearization lin (solver.LinearData)."""
        return lin.slope() if self.s_override is None else self.s_override

    def gens(self):
        """The declared generators, validated (semigroup.Generators)."""
        from .semigroup import validate_generators

        if self.generator_exponents is None:
            raise SchemaError("problem file: this command requires the 'generators' key")
        return validate_generators(self.generator_exponents)

    def default_gens(self):
        """Declared generators, or {1} when none are declared, validated."""
        from .semigroup import validate_generators

        return validate_generators(self.generator_exponents or [self.basis.rational(Fraction(1))])


def _load_problem(path: str, args) -> Problem:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"problem file: cannot read {path} ({exc})") from exc
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # a JSONDecodeError, an int literal past Python's digit limit, or
        # nesting past the recursion limit
        raise SchemaError(f"problem file: invalid JSON in {path} ({exc})") from exc
    return Problem(data, args)


def _problem(args) -> Problem:
    """The run's problem, loaded once the command has imported its layers."""
    # the modules, classes and functions the imports made live until exit:
    # promote them to the oldest generation now, or the first young
    # collection the command triggers traverses them all
    gc.collect(1)
    return _load_problem(args.problem, args)


def _write_text(directory: Path, name: str, content: str) -> Path:
    path = directory / name
    try:
        directory.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(content)
    except OSError as exc:
        raise SchemaError(f"--output-dir: cannot write {path} ({exc})") from exc
    return path


def _json_text(payload: dict, name: str) -> str:
    """The JSON artifact text: the text of json.dumps(payload, sort_keys=True,
    indent=2, allow_nan=False) plus a newline, written in one pass into one
    list of pieces (json.dumps takes its pure-Python encoder to indent).
    Strings go through json's C escaper, ints and floats through their
    reprs; a non-finite float raises DomainError, and any value that is not
    a dict with str keys, a list, a tuple, a str, an int, a float, a bool or
    None raises TypeError."""
    parts = []
    out = parts.append

    def write(value, newline):
        if isinstance(value, str):
            out(_escape(value))
        elif value is None:
            out("null")
        elif value is True:
            out("true")
        elif value is False:
            out("false")
        elif isinstance(value, int):
            out(int.__repr__(value))
        elif isinstance(value, float):
            if not isfinite(value):
                raise DomainError(
                    f"{name}: a value lies outside the double range, and JSON has no infinite or NaN number"
                )
            out(float.__repr__(value))
        elif isinstance(value, (list, tuple)):
            if not value:
                out("[]")
                return
            inner = newline + "  "
            sep = "[" + inner
            for item in value:
                out(sep)
                sep = "," + inner
                write(item, inner)
            out(newline + "]")
        elif isinstance(value, dict):
            if not value:
                out("{}")
                return
            inner = newline + "  "
            sep = "{" + inner
            for key in sorted(value):
                if not isinstance(key, str):
                    raise TypeError(f"{name}: keys must be str, not {type(key).__name__}")
                out(sep + _escape(key) + ": ")
                sep = "," + inner
                write(value[key], inner)
            out(newline + "}")
        else:
            raise TypeError(f"{name}: Object of type {type(value).__name__} is not JSON serializable")

    write(payload, "\n")
    out("\n")
    return "".join(parts)


def _emit(args, payload: dict, json_name: str, csv_text: str | None, csv_name: str | None, text_lines) -> None:
    outdir = Path(args.output_dir)
    json_text = _json_text({"command": args.command, **payload}, json_name)
    _write_text(outdir, json_name, json_text)
    if csv_text is not None and csv_name is not None:
        _write_text(outdir, csv_name, csv_text)
    if args.format == "json":
        sys.stdout.write(json_text)
    elif args.format == "csv" and csv_text is not None:
        sys.stdout.write(csv_text)
    else:
        for line in text_lines:
            print(line)


def _csv_field(value) -> str:
    text = "" if value is None else str(value)
    if '"' in text or "," in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_text(header, rows) -> str:
    """The header and then one line per row, with CRLF line ends: the one
    writer of terms.csv and gevrey.csv.  The csv module's minimal quoting:
    None is an empty field, any other value its str, and a field holding a
    comma, a quote, CR or LF is quoted, with each quote doubled.  Rows have
    at least two fields (csv also quotes a lone empty field)."""
    return "".join(",".join(map(_csv_field, row)) + "\r\n" for row in chain((header,), rows))


# -- commands ------------------------------------------------------------------


def _cmd_solve(args) -> int:
    from .solver import extend

    problem = _problem(args)
    state = extend(problem.ode, problem.prefix, problem.cutoff)
    c = problem.cutoff
    text = [
        # a cutoff past the double range as the exact string of solution.json
        f"solve: {len(state.solution.terms)} terms below cutoff "
        f"{float(c) if c == INF or abs(c) <= DOUBLE_MAX else cutoff_to_json(c)}",
        f"residual valuation: {'inf' if state.residual.is_zero() else float(state.residual.val())}",
    ]
    payload = state.to_json()
    # terms.csv is written from the literals of solution.json, so each term is serialized once
    terms = (
        (k, ";".join(t["exp"]), str(e.re_mid), str(e.im_mid), c.degree, ";".join(t["poly"]))
        for k, (t, (e, c)) in enumerate(zip(payload["solution"]["terms"], state.solution.terms), start=1)
    )
    csv_text = _csv_text(["k", "exp", "re_lambda", "im_lambda", "deg_c", "poly"], terms)
    _emit(args, payload, "solution.json", csv_text, "terms.csv", text)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    from .numeric import check_conditions
    from .solver import extract_linearization

    problem = _problem(args)
    lin = extract_linearization(problem.ode, problem.prefix)
    s = problem.growth_order(lin)
    conditions = None
    if problem.prefix.terms:
        conditions = check_conditions(lin, [e for e, _ in problem.prefix.terms], s).to_json()
    payload = {
        "linearization": lin.to_json(),
        "s": serialize_s(s),
        "conditions": conditions,
    }
    text = [
        f"nu: {';'.join(lin.nu.serialize())} (Re = {float(lin.nu.re_mid)})",
        f"A: [{', '.join(str(a) for a in lin.A)}]",
        f"ell: {lin.ell}",
        f"s: {serialize_s(s)}",
    ]
    if conditions is not None:
        text.append(
            f"conditions at m={len(problem.prefix.terms)}: roots_ok={conditions['roots_ok']} "
            f"gap_ok={conditions['gap_ok']} minimal_m={conditions['minimal_m']}"
        )
    _emit(args, payload, "analysis.json", None, None, text)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .gevrey import CSV_COLUMNS, classify
    from .solver import extend

    problem = _problem(args)
    state = extend(problem.ode, problem.prefix, problem.cutoff)
    s = problem.growth_order(state.lin)
    R = problem.R if problem.R is not None else Fraction(2)
    report = classify(state, s, R)
    text = [
        f"s: {serialize_s(s)}",
        f"verdict: {report.verdict}",
        f"rows: {len(report.rows)}",
        f"C_fit: {report.C_fit}",
        f"A_fit: {report.A_fit}",
    ]
    if report.radius_estimate is not None:
        text.append(f"radius_estimate: {report.radius_estimate}")
    payload = report.to_json()
    # gevrey.csv is written from the rows of gevrey.json, so each row is built once
    csv_text = _csv_text(CSV_COLUMNS, ([row[c] for c in CSV_COLUMNS] for row in payload["rows"]))
    _emit(args, payload, "gevrey.json", csv_text, "gevrey.csv", text)
    return EXIT_OK


def _cmd_reduce(args) -> int:
    from .numeric import check_conditions
    from .solver import extend, reduce_equation

    problem = _problem(args)
    if problem.prefix.terms:
        phi, m = problem.prefix, len(problem.prefix.terms)
    else:
        state = extend(problem.ode, problem.prefix, problem.cutoff)
        if not state.solution.terms:
            raise PreconditionViolated("reduce: no prefix given and the solved solution is empty")
        phi = state.solution
        report = check_conditions(state.lin, [e for e, _ in phi.terms], problem.growth_order(state.lin))
        m = report.minimal_m if report.minimal_m is not None else 1
    red = reduce_equation(problem.ode, phi, m, s=problem.s_override)
    text = [
        f"m: {m}",
        f"lambda_m: {';'.join(red.lambda_m.serialize())}",
        f"tau (Re): {float(red.tau.re_mid)}",
        f"nonlinear terms: {len(red.N)}",
        f"violations: {'; '.join(red.violations) if red.violations else 'none'}",
    ]
    _emit(args, {"m": m, **red.to_json()}, "reduced.json", None, None, text)
    return EXIT_OK


def _cmd_iota(args) -> int:
    from .mseries import fit_degree_K, iota as iota_map, iota_inv
    from .semigroup import exponent_gaps
    from .solver import extend

    problem = _problem(args)
    gens = problem.gens()
    state = extend(problem.ode, problem.prefix, problem.cutoff)
    m = len(problem.prefix.terms) if problem.prefix.terms else 1
    if len(state.solution.terms) < m:
        raise PreconditionViolated(
            f"iota: solution has {len(state.solution.terms)} terms, fewer than the base index m = {m}"
        )
    lam_m = state.solution.terms[m - 1][0]
    gaps = exponent_gaps(state.solution.terms, gens, m)
    for k, gap, decomp in gaps:
        if decomp is None:
            raise ExponentOutsideSemigroup(
                f"iota: gap lambda_{k} - lambda_{m} = {gap} does not decompose over the "
                "declared generators; they do not generate the solution's exponent steps"
            )
    tail = DulacSeries(problem.basis, state.solution.terms[m:], state.solution.cutoff).shift(-lam_m)
    image = iota_map(tail, gens, lam_m)
    round_trip = iota_inv(image)
    exact = round_trip.terms == tail.terms and round_trip.cutoff == tail.cutoff
    K_fit = fit_degree_K(image)
    payload = {
        "m": m,
        "lambda_base": lam_m.serialize(),
        "gaps": [
            {"k": k, "gap": gap.serialize(), "m": list(decomp)} for k, gap, decomp in gaps
        ],
        "mseries": image.to_json(),
        "round_trip_exact": exact,
        "K_fit": str(K_fit),
    }
    text = [
        f"m: {m}  (lambda_base {';'.join(lam_m.serialize())})",
        f"kappa: {gens.kappa}",
        f"tail terms transported: {len(image.terms)}",
        f"round_trip_exact: {exact}",
        f"K_fit: {K_fit}",
    ]
    _emit(args, payload, "mseries.json", None, None, text)
    return EXIT_OK


def _cmd_check_norms(args) -> int:
    import random

    from .norms import norm_trials
    from .semigroup import choose_R

    problem = _problem(args)
    gens = problem.default_gens()
    s = problem.s_override if problem.s_override not in (None, INF) else Fraction(1)
    Kcal = Fraction(2)
    R = problem.R if problem.R is not None else choose_R(Kcal, gens)[1]
    counts = norm_trials(random.Random(args.seed), gens, R, s, Kcal)
    all_pass = not any(failures for _, failures in counts.values())
    payload = {
        "seed": args.seed,
        "R": str(R),
        "s": serialize_s(s),
        "Kcal": str(Kcal),
        **{kind: {"trials": t, "failures": f} for kind, (t, f) in counts.items()},
        "all_pass": all_pass,
    }
    passed = {kind: f"{t - f}/{t}" for kind, (t, f) in counts.items()}
    text = [
        f"lemma6 product estimate: {passed['lemma6']} pass",
        f"lemma5 operator estimate: {passed['lemma5']} pass",
        f"lemma5 precondition gate: {passed['lemma5_rejects']} rejected",
        f"majorant monotonicity: {passed['majorant_monotone']} pass",
        f"all_pass: {all_pass}",
    ]
    _emit(args, payload, "normcheck.json", None, None, text)
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


def _cmd_suggest_generators(args) -> int:
    from .semigroup import suggest_generators

    problem = _problem(args)
    result = suggest_generators(problem.ode, problem.prefix, problem.basis)
    text = [
        f"suggested: {result['suggested']}",
        f"note: {result['note']}",
    ]
    _emit(args, result, "generators.json", None, None, text)
    return EXIT_OK


_COMMANDS = {
    "solve": _cmd_solve,
    "analyze": _cmd_analyze,
    "verify": _cmd_verify,
    "reduce": _cmd_reduce,
    "iota": _cmd_iota,
    "check-norms": _cmd_check_norms,
    "suggest-generators": _cmd_suggest_generators,
}


def _number_flag(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 5 (malformed flag), not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SchemaError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dulac",
        description="Dulac series solver and growth-order analysis toolkit.",
    )
    # every subcommand takes the same arguments, so one parser reads them all
    parser.add_argument("command", choices=list(_COMMANDS), help="the subcommand to run")
    parser.add_argument("problem", help="path to the JSON problem file")
    parser.add_argument("--cutoff", type=_number_flag, default=None,
                        help="override the problem file's cutoff on Re lambda")
    parser.add_argument("--R", type=_number_flag, default=None,
                        help="override the coefficient-norm weight R (> 1)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the randomized harnesses")
    parser.add_argument("--output-dir", default=".",
                        help="directory for JSON/CSV artifacts (default: .)")
    parser.add_argument("--format", choices=["json", "csv", "text"], default="text",
                        help="stdout rendering (artifacts are always written)")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DerivativeYnZeroWarning)
            return _COMMANDS[args.command](args)
    except (DulacError, DerivativeYnZeroWarning) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
