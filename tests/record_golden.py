"""Golden digests of every CLI run over the tests/data corpus.

Each run is one subcommand on one problem file, in process.  Its digest is a
sha256 over the exit code, stdout, stderr (the problem and output directory
paths replaced by placeholders), any warning raised outside the CLI's own
handling, and the bytes of every artifact file it wrote.  tests/test_golden.py
compares these digests against tests/data/golden_digests.json, so any change
to an output byte fails a test.

Rewrite the file only on known-good code, from the root of a checkout:

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

from dulac import cli

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_digests.json"
COMMANDS = ("solve", "analyze", "verify", "reduce", "iota", "check-norms", "suggest-generators")


def runs() -> list:
    """(name, argv without --output-dir) for every golden run."""
    out = []
    for problem in sorted(p.name for p in DATA.glob("*.json") if p != GOLDEN):
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


def main() -> None:
    digests = {name: digest(argv) for name, argv in runs()}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN}")


if __name__ == "__main__":
    main()
