"""Byte comparison of two checkouts' CLI runs over the tests/data problems.

    python -m tests.compare_runs OLD_ROOT NEW_ROOT

Runs every subcommand on every tests/data problem of NEW_ROOT with
--format text, json and csv, once with OLD_ROOT/src and once with
NEW_ROOT/src on the import path, each in a fresh interpreter and a fresh
working directory with the same relative --output-dir.  Prints each run
whose exit code, stdout, stderr or artifact bytes differ, and exits 1 if
any does, 0 otherwise.  A change that keeps the artifacts byte-identical
must pass it against its parent.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

from dulac.cli import _COMMANDS

FORMATS = ("text", "json", "csv")


def outcome(root: Path, argv: list) -> tuple:
    """(exit code, stdout, stderr, {artifact name: bytes}) of one run of the
    dulac in root/src, in a fresh working directory."""
    inherited = os.environ.get("PYTHONPATH")
    src = str(root / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + inherited if inherited else src)
    with tempfile.TemporaryDirectory() as cwd:
        done = subprocess.run([sys.executable, "-m", "dulac", *argv, "--output-dir", "out"],
                              cwd=cwd, env=env, capture_output=True)
        out = Path(cwd) / "out"
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
    return done.returncode, done.stdout, done.stderr, files


def main(argv=None) -> int:
    old, new = (Path(a).resolve() for a in (argv or sys.argv[1:]))
    problems = sorted(p for p in (new / "tests" / "data").glob("*.json") if not p.name.startswith("golden"))
    runs = differ = 0
    for command in _COMMANDS:
        for problem in problems:
            for fmt in FORMATS:
                args = [command, str(problem), "--format", fmt]
                runs += 1
                a, b = outcome(old, args), outcome(new, args)
                if a != b:
                    differ += 1
                    parts = [name for name, x, y in zip(("exit code", "stdout", "stderr", "artifacts"), a, b) if x != y]
                    print(f"differ: {' '.join(args[:1] + [problem.name] + args[2:])}: {', '.join(parts)}")
    print(f"{runs} runs, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
