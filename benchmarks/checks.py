"""Correctness checks on the artifacts of one dulac job.

Each job is checked three ways: its exit code, the absence of a traceback on
stderr, and its outputs.  Outputs are checked against an independent oracle
where one exists (the solved coefficients, and everything derived from them
term by term), and against a recorded digest of their mathematical content
where one was recorded for exactly these inputs.  A digest covers the
claimed terms, cutoffs, verdicts and tallies that `content` extracts, never
the raw bytes, so that a documented new artifact field is not a failure.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from pathlib import Path

ARTIFACT = {
    "solve": "solution.json",
    "analyze": "analysis.json",
    "verify": "gevrey.json",
    "reduce": "reduced.json",
    "iota": "mseries.json",
    "check-norms": "normcheck.json",
    "suggest-generators": "generators.json",
}

_SCALAR = re.compile(r"^(?P<re>[+-]?\d+/\d+)(?:(?P<im>[+-]\d+/\d+)i)?$")
_FLOAT_DIGITS = 9


def scalar(text: str) -> tuple:
    """(re, im) Fractions from a serialized exact scalar such as "1/2-3/4i"."""
    m = _SCALAR.match(text)
    if m is None:
        raise ValueError(f"not an exact scalar: {text!r}")
    return Fraction(m["re"]), Fraction(m["im"]) if m["im"] else Fraction(0)


def poly(texts) -> tuple:
    return tuple(scalar(t) for t in texts)


def coords(texts) -> tuple:
    return tuple(Fraction(t) for t in texts)


def solution_terms(artifact: dict) -> list:
    """[(exponent coords, poly)] of a solution or series artifact, in order."""
    return [(coords(t["exp"]), poly(t["poly"])) for t in artifact["terms"]]


def max_bits(terms) -> int:
    """Largest numerator or denominator bit length among the coefficients."""
    return max(
        (max(abs(q.numerator).bit_length(), q.denominator.bit_length())
         for _, p in terms for z in p for q in z),
        default=0,
    )


def _rounded(x):
    return None if x is None else float(f"{x:.{_FLOAT_DIGITS}g}")


def content(command: str, artifact: dict):
    """The mathematical content of an artifact, in a canonical JSON shape."""
    if command == "solve":
        sol = artifact["solution"]
        return {"cutoff": sol["cutoff"], "terms": sol["terms"]}
    if command == "verify":
        rows = [
            [r["k"], _rounded(r["re_lambda"]), _rounded(r["im_lambda"]), r["deg_c"],
             _rounded(r["norm_R"]), _rounded(r["rho"])]
            for r in artifact["rows"]
        ]
        return {
            "verdict": artifact["verdict"], "s": artifact["s"], "R": artifact["R"],
            "C_fit": _rounded(artifact["C_fit"]), "A_fit": _rounded(artifact["A_fit"]),
            "radius_estimate": _rounded(artifact.get("radius_estimate")), "rows": rows,
        }
    if command == "iota":
        return {key: artifact[key] for key in ("m", "lambda_base", "gaps", "mseries", "round_trip_exact", "K_fit")}
    if command == "check-norms":
        keys = ("R", "s", "Kcal", "lemma6", "lemma5", "lemma5_rejects", "majorant_monotone", "all_pass")
        return {key: artifact[key] for key in keys}
    if command == "suggest-generators":
        return {"candidates": artifact["candidates"], "suggested": artifact["suggested"]}
    if command == "analyze":
        return {key: artifact[key] for key in ("linearization", "s", "conditions")}
    if command == "reduce":
        return {key: value for key, value in artifact.items() if key != "command"}
    raise ValueError(f"no content rule for {command!r}")


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def job_key(problem_bytes: bytes, args) -> str:
    """Identifies a job by its inputs, so a recorded digest applies exactly
    when the problem file and the flags are the same."""
    h = hashlib.sha256(problem_bytes)
    h.update(json.dumps(list(args)).encode("utf-8"))
    return h.hexdigest()[:16]


# -- oracle comparisons ---------------------------------------------------------


def _same_terms(claimed, expected, what: str) -> list:
    if len(claimed) != len(expected):
        return [f"{what}: {len(claimed)} terms, oracle has {len(expected)}"]
    for k, (got, want) in enumerate(zip(claimed, expected), start=1):
        if got != want:
            return [f"{what}: term {k} is {got}, oracle has {want}"]
    return []


def check_outputs(job, outdir: Path, oracle, digests: dict, problem_bytes: bytes) -> list:
    """Problems found in the outputs of a job that exited as expected."""
    path = outdir / ARTIFACT[job.command]
    try:
        artifact = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"artifact {path.name} unreadable ({exc})"]
    problems = oracle_problems(job, artifact, oracle)
    if job.command == "check-norms":
        tallies = ("lemma6", "lemma5", "lemma5_rejects", "majorant_monotone")
        failures = {key: artifact[key]["failures"] for key in tallies}
        if any(failures.values()) or not artifact["all_pass"]:
            problems.append(f"norm checks failed: {failures}")
    want = digests.get(job_key(problem_bytes, job.args))
    if want is not None:
        got = digest(content(job.command, artifact))
        if got != want:
            problems.append(f"content digest {got} differs from the recorded {want}")
    return problems


def oracle_problems(job, artifact: dict, oracle) -> list:
    """Compare the terms an artifact claims with the oracle's below the job's cutoff."""
    if job.command not in ("solve", "iota", "verify"):
        return []
    expected = oracle.terms(job.cutoff)
    if job.command == "solve":
        problems = _same_terms(solution_terms(artifact["solution"]), expected, "solution")
        if artifact["solution"]["cutoff"] != float(job.cutoff):
            problems.append(f"solution cutoff {artifact['solution']['cutoff']} is not {job.cutoff}")
        return problems
    if job.command == "iota":
        base = expected[0][0]
        want = sorted((oracle.multi_index(e, base), p) for e, p in expected[1:])
        got = sorted((tuple(t["m"]), poly(t["poly"])) for t in artifact["mseries"]["terms"])
        problems = _same_terms(got, want, "iota image")
        if not artifact["round_trip_exact"]:
            problems.append("iota round trip is not exact")
        return problems
    got = [(r["k"], r["re_lambda"], r["im_lambda"], r["deg_c"]) for r in artifact["rows"]]
    want = [
        (k, float(oracle.re(e)), float(oracle.im(e)), len(p) - 1)
        for k, (e, p) in enumerate(expected, start=1)
    ]
    return _same_terms(got, want, "growth table")
