"""Golden digests of every CLI run over the tests/data corpus, and golden
norm values of check-norms runs.

Each run is one subcommand on one problem file, in process.  Its digest is a
sha256 over the exit code, stdout, stderr (the problem and output directory
paths replaced by placeholders), any warning raised outside the CLI's own
handling, and the bytes of every artifact file it wrote.  tests/test_golden.py
compares these digests against tests/data/golden_digests.json, so any change
to an output byte fails a test.

check-norms artifacts only count passes, so tests/data/golden_norms.json also
keeps, for check-norms at several seeds on a few problems, every field of
every Lemma5Report/Lemma6Report and every majorant_bound result the run
computes, mpf values as their exact _mpf_ tuples.  A changed bit in any norm
fails a test even when every check still passes.

Rewrite both files only on known-good code, from the root of a checkout:

    PYTHONPATH=src python -m tests.record_golden
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import mpmath

from dulac import cli, norms

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_digests.json"
GOLDEN_NORMS = DATA / "golden_norms.json"
COMMANDS = ("solve", "analyze", "verify", "reduce", "iota", "check-norms", "suggest-generators")
NORM_PROBLEMS = ("euler_gens.json", "semigroup_2d.json", "resonant_logprefix.json")
NORM_SEEDS = range(6)
NORM_CHECKS = ("check_lemma5", "check_lemma6", "majorant_bound")


def runs() -> list:
    """(name, argv without --output-dir) for every golden run."""
    out = []
    for problem in sorted(p.name for p in DATA.glob("*.json") if p not in (GOLDEN, GOLDEN_NORMS)):
        path = str(DATA / problem)
        for command in COMMANDS:
            flags = ["--seed", "7"] if command == "check-norms" else []
            out.append((" ".join([command, problem, *flags]), [command, path, *flags]))
        flags = ["--cutoff", "7", "--format", "json"]
        out.append((" ".join(["solve", problem, *flags]), ["solve", path, *flags]))
    return out


def digest(argv: list) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        outdir = Path(tmp) / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main([*argv, "--output-dir", str(outdir)])

        def normalize(text: str) -> str:
            return text.replace(str(outdir), "<OUT>").replace(str(DATA), "<DATA>")

        record = {
            "exit": code,
            "stdout": normalize(stdout.getvalue()),
            "stderr": normalize(stderr.getvalue()),
            "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
            "artifacts": {
                f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                for f in sorted(outdir.glob("*"))
            } if outdir.is_dir() else {},
        }
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode("utf-8")).hexdigest()


def norm_runs() -> list:
    """(name, argv without --output-dir) for every golden norm run."""
    return [
        (f"check-norms {problem} --seed {seed}",
         ["check-norms", str(DATA / problem), "--seed", str(seed)])
        for problem in NORM_PROBLEMS
        for seed in NORM_SEEDS
    ]


def _encode(value):
    if isinstance(value, mpmath.mpf):
        return [int(v) for v in value._mpf_]
    return value


def norm_values(argv: list) -> list:
    """One record per call of a norm check in the run, in call order:
    [check name, *report fields] (a majorant_bound result is its one field),
    or [check name, exception class name] when the call raised."""
    records = []

    def recording(name, check):
        def wrapper(*args, **kwargs):
            try:
                out = check(*args, **kwargs)
            except Exception as exc:
                records.append([name, type(exc).__name__])
                raise
            # a report is a namedtuple: its fields in declaration order
            fields = [getattr(out, name) for name in out._fields] \
                if hasattr(out, "_fields") else [out]
            records.append([name, *(_encode(v) for v in fields)])
            return out
        return wrapper

    # the checks are patched on norms, whose norm_trials calls them
    saved = {name: getattr(norms, name) for name in NORM_CHECKS}
    try:
        for name, check in saved.items():
            setattr(norms, name, recording(name, check))
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main([*argv, "--output-dir", tmp])
    finally:
        for name, check in saved.items():
            setattr(norms, name, check)
    return records


def _norms_text(values: dict) -> str:
    """JSON with one record per line."""
    runs_text = [
        f" {json.dumps(name)}: [\n" + ",\n".join(f"  {json.dumps(r)}" for r in records) + "\n ]"
        for name, records in sorted(values.items())
    ]
    return "{\n" + ",\n".join(runs_text) + "\n}\n"


def main() -> None:
    digests = {name: digest(argv) for name, argv in runs()}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
    norms = {name: norm_values(argv) for name, argv in norm_runs()}
    GOLDEN_NORMS.write_text(_norms_text(norms), encoding="utf-8")
    print(f"wrote {sum(map(len, norms.values()))} norm records to {GOLDEN_NORMS}")


if __name__ == "__main__":
    main()
