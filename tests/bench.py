"""Cost record of this checkout: sizes, operation counts and timings in one JSON file.

    PYTHONPATH=src python -m tests.bench --out BENCH_<n>.json

Run from the root of a source checkout.  The file holds the Python version,
the commit and the host's `python -c pass` time; the line counts of
src/dulac (tests.util.line_counts); the operation counts of every
tests.util.PINNED_RUNS extend and every FLOAT_RUNS CLI run, which are
noise-free and equal between runs; each subcommand's spawn-to-exit median
on tests/data problems; and in-process medians of the artifact writing of
the pinned runs (SolutionState.to_json and cli._json_text).  Times are
wall-clock seconds on the host that ran it, so compare ratios between
files written on different hosts, not the seconds themselves.
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from dulac import cli
from dulac.exponents import ExponentBasis
from dulac.ode import ODESpec
from dulac.series import DulacSeries
from dulac.solver import extend

from .util import DATA, FLOAT_RUNS, PINNED_RUNS, child_env, extend_counts, float_counts, line_counts

ROOT = Path(__file__).resolve().parents[1]

# (subcommand, tests/data problem, flags): one fresh process each
SPAWN_RUNS = (
    ("solve", "euler_gens.json"), ("solve", "semigroup_2d.json", "--cutoff", "7"),
    ("analyze", "euler_gens.json"), ("verify", "euler_gens.json"), ("reduce", "euler_gens.json"),
    ("iota", "euler_gens.json"), ("check-norms", "euler_gens.json"), ("suggest-generators", "euler_gens.json"),
)
SPAWNS = 9
IN_PROCESS = 31


def _median_s(run, times: int) -> float:
    samples = []
    for _ in range(times):
        began = perf_counter()
        run()
        samples.append(perf_counter() - began)
    return statistics.median(samples)


def _commit() -> str | None:
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True).stdout.strip()

    head = git("rev-parse", "HEAD")
    return (head + ("+dirty" if git("status", "--porcelain", "--untracked-files=no") else "")) or None


def _spawn_s(run: tuple, out: str) -> float:
    command, name, *flags = run
    argv = [sys.executable, "-m", "dulac", command, str(DATA / name), *flags, "--output-dir", out]
    env = child_env()
    return _median_s(lambda: subprocess.run(argv, env=env, capture_output=True), SPAWNS)


def _writing_s() -> dict:
    """Median seconds of SolutionState.to_json and of cli._json_text on its
    solve payload, for the state of each pinned run."""
    out = {}
    for name, cutoff in PINNED_RUNS:
        data = json.loads((DATA / name).read_text(encoding="utf-8"))
        basis = ExponentBasis(data["basis"])
        prefix = DulacSeries.from_json({"terms": data["prefix"]}, basis)
        state = extend(ODESpec.from_json(data["ode"]), prefix, cutoff)
        payload = {"command": "solve", **state.to_json()}
        out[f"{name} --cutoff {cutoff}"] = {
            "to_json": _median_s(state.to_json, IN_PROCESS),
            "json_text": _median_s(lambda: cli._json_text(payload, "solution.json"), IN_PROCESS),
        }
    return out


def record() -> dict:
    rows = line_counts(ROOT / "src" / "dulac")
    with tempfile.TemporaryDirectory() as out:
        spawn = {" ".join(run): _spawn_s(run, out) for run in SPAWN_RUNS}
    return {
        "python": platform.python_version(),
        "commit": _commit(),
        "python_c_pass_s": _median_s(lambda: subprocess.run([sys.executable, "-c", "pass"]), SPAWNS),
        "src_lines": {
            "total": sum(r[1] for r in rows),
            "code": sum(r[2] for r in rows),
            "modules": {name: {"lines": total, "code": code} for name, total, code in rows},
        },
        "extend_counts": {f"{name} --cutoff {cutoff}": extend_counts(name, cutoff) for name, cutoff in PINNED_RUNS},
        "float_counts": {" ".join(run): float_counts(*run) for run in FLOAT_RUNS},
        "spawn_to_exit_s": spawn,
        "in_process_s": _writing_s(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="the JSON file to write, e.g. BENCH_<n>.json")
    args = parser.parse_args(argv)
    Path(args.out).write_text(json.dumps(record(), indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
