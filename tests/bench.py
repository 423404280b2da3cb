"""Cost record of this checkout: sizes, operation counts and timings in one JSON file.

    PYTHONPATH=src python -m tests.bench --out BENCH_<n>.json

Run from the root of a source checkout.  The file holds the Python version,
the commit and the host's `python -c pass` time; the line counts of
src/dulac (tests.util.line_counts); the operation counts of every
tests.util.PINNED_RUNS extend and every FLOAT_RUNS CLI run, which are
noise-free and equal between runs; each subcommand's spawn-to-exit median
on tests/data problems, next to the median CPU time of the spawned process
(the RUSAGE_CHILDREN delta of each spawn), which a busy host moves less;
and in-process medians: the CPU time (time.process_time) of one extend of
each pinned run, and of the norm_trials call of the FLOAT_RUNS check-norms
run from cold float memos (tests.util.FLOAT_MEMOS) and a freshly loaded
problem; the wall time per call of TPoly._raw and Exponent._raw on the
fields of the last term the first pinned run solves, and of gamma_abs at
one real and one complex point; and the wall time of the artifact writing
of the pinned runs (SolutionState.to_json and cli._json_text); and a
large-N sweep, the number N of solved terms and the median CPU time of
SWEEP_RUNS in-process extends of the benchmark's log-resonant and
semigroup-2d problems (benchmarks/workloads.py, imported read-only) at seed
SWEEP_SEED over SWEEP_CUTOFFS.  Times are seconds on the host that ran it,
so compare ratios between files written on different hosts, not the seconds
themselves.
"""

import argparse
import contextlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import timeit
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

from dulac import cli, norms
from dulac.exponents import Exponent, ExponentBasis
from dulac.gammafn import gamma_abs
from dulac.ode import ODESpec
from dulac.scalars import ExactScalar
from dulac.series import DulacSeries
from dulac.solver import extend
from dulac.tpoly import TPoly

from .util import DATA, FLOAT_MEMOS, FLOAT_RUNS, PINNED_RUNS, child_env, extend_counts, float_counts, line_counts

ROOT = Path(__file__).resolve().parents[1]

# (subcommand, tests/data problem, flags): one fresh process each
SPAWN_RUNS = (
    ("solve", "euler_gens.json"), ("solve", "semigroup_2d.json", "--cutoff", "7"),
    ("analyze", "euler_gens.json"), ("verify", "euler_gens.json"), ("reduce", "euler_gens.json"),
    ("iota", "euler_gens.json"), ("check-norms", "euler_gens.json"), ("suggest-generators", "euler_gens.json"),
)
SPAWNS = 9
IN_PROCESS = 31
# check-norms runs whose norm_trials call is timed: one takes about 12 ms,
# and more of them steady the median against a shared host's swings
NORM_TRIALS_RUNS = 101
# calls per timed batch of a constructor, and of gamma_abs
BATCH = 20000
GAMMA_BATCH = 200
# the points gamma_abs is timed at: a real one and a complex one
GAMMA_POINTS = {"real": ExactScalar(Fraction(7, 2), Fraction(0)),
                "complex": ExactScalar(Fraction(1, 2), Fraction(3, 2))}
# the large-N sweep: benchmark workload -> cutoffs, at one seed
SWEEP_CUTOFFS = {"log-resonant": (32, 48, 64), "semigroup-2d": (12, 14)}
SWEEP_SEED = 5
SWEEP_RUNS = 3


def _median_s(run, times: int, clock=perf_counter) -> float:
    samples = []
    for _ in range(times):
        began = clock()
        run()
        samples.append(clock() - began)
    return statistics.median(samples)


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _commit() -> str | None:
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True).stdout.strip()

    head = git("rev-parse", "HEAD")
    return (head + ("+dirty" if git("status", "--porcelain", "--untracked-files=no") else "")) or None


def _spawn_s(run: tuple, out: str) -> tuple:
    """(wall, child CPU) medians in seconds of SPAWNS runs of run."""
    command, name, *flags = run
    argv = [sys.executable, "-m", "dulac", command, str(DATA / name), *flags, "--output-dir", out]
    env = child_env()
    wall, cpu = [], []
    for _ in range(SPAWNS):
        began, began_cpu = perf_counter(), _children_cpu_s()
        subprocess.run(argv, env=env, capture_output=True)
        wall.append(perf_counter() - began)
        cpu.append(_children_cpu_s() - began_cpu)
    return statistics.median(wall), statistics.median(cpu)


def _pinned_states() -> dict:
    """The extend arguments and the solved state of each pinned run."""
    out = {}
    for name, cutoff in PINNED_RUNS:
        data = json.loads((DATA / name).read_text(encoding="utf-8"))
        basis = ExponentBasis(data["basis"])
        args = ODESpec.from_json(data["ode"]), DulacSeries.from_json({"terms": data["prefix"]}, basis), cutoff
        out[f"{name} --cutoff {cutoff}"] = args, extend(*args)
    return out


def _per_call_s(stmt: str, batch: int = BATCH, **names) -> float:
    """Median seconds per call of stmt over IN_PROCESS batches of batch calls."""
    return statistics.median(timeit.repeat(stmt, globals=names, number=batch, repeat=IN_PROCESS)) / batch


def _norm_trials_cpu_s() -> float:
    """Median CPU time of the norm_trials call of the FLOAT_RUNS check-norms
    run over NORM_TRIALS_RUNS runs, each from cold float memos and a freshly
    loaded problem; the rest of the CLI run is not timed."""
    (command, name, *flags), = (run for run in FLOAT_RUNS if run[0] == "check-norms")
    real, samples = norms.norm_trials, []

    def timed(*args):
        began = process_time()
        counts = real(*args)
        samples.append(process_time() - began)
        return counts

    norms.norm_trials = timed
    try:
        with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
            for _ in range(NORM_TRIALS_RUNS):
                for memo in FLOAT_MEMOS:
                    memo.cache_clear()
                cli.main([command, str(DATA / name), *flags, "--output-dir", out])
    finally:
        norms.norm_trials = real
    return statistics.median(samples)


def _in_process_s(states: dict) -> dict:
    """Medians of one extend's CPU time and of norm_trials', of the
    constructors and gamma_abs per call, and of SolutionState.to_json and
    cli._json_text on its solve payload."""
    first = next(iter(states.values()))[1]
    e, c = first.solution.terms[-1]
    writing = {}
    for run, (_, state) in states.items():
        payload = {"command": "solve", **state.to_json()}
        writing[run] = {
            "to_json": _median_s(state.to_json, IN_PROCESS),
            "json_text": _median_s(lambda: cli._json_text(payload, "solution.json"), IN_PROCESS),
        }
    return {
        "extend_cpu_s": {run: _median_s(lambda: extend(*args), IN_PROCESS, process_time)
                         for run, (args, _) in states.items()},
        "norm_trials_cpu_s": _norm_trials_cpu_s(),
        "call_s": {
            "TPoly._raw": _per_call_s("raw(den, re, im)", raw=TPoly._raw, den=c.den, re=c.re, im=c.im),
            "Exponent._raw": _per_call_s("raw(basis, den, nums)", raw=Exponent._raw, basis=e.basis,
                                         den=e.den, nums=e.nums),
            **{f"gamma_abs {kind}": _per_call_s("gamma_abs(z)", GAMMA_BATCH, gamma_abs=gamma_abs, z=z)
               for kind, z in GAMMA_POINTS.items()},
        },
        "writing_s": writing,
    }


def _sweep() -> dict:
    """{workload: {cutoff: {"N", "extend_cpu_s"}}} of the large-N sweep."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import workloads
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(ROOT / "benchmarks"))
    out = {}
    for name, cutoffs in SWEEP_CUTOFFS.items():
        (data,) = (json.loads(text) for text in workloads.build(name, SWEEP_SEED, ROOT).problems.values())
        basis = ExponentBasis(data["basis"])
        F, prefix = ODESpec.from_json(data["ode"]), DulacSeries.from_json({"terms": data["prefix"]}, basis)
        out[name] = {cutoff: {"N": len(extend(F, prefix, cutoff).solution.terms),
                              "extend_cpu_s": _median_s(lambda: extend(F, prefix, cutoff), SWEEP_RUNS, process_time)}
                     for cutoff in cutoffs}
    return out


def record() -> dict:
    rows = line_counts(ROOT / "src" / "dulac")
    with tempfile.TemporaryDirectory() as out:
        spawn = {" ".join(run): _spawn_s(run, out) for run in SPAWN_RUNS}
    states = _pinned_states()
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
        "spawn_to_exit_s": {run: wall for run, (wall, _) in spawn.items()},
        "spawn_child_cpu_s": {run: cpu for run, (_, cpu) in spawn.items()},
        "in_process_s": _in_process_s(states),
        "large_n_sweep": _sweep(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="the JSON file to write, e.g. BENCH_<n>.json")
    args = parser.parse_args(argv)
    Path(args.out).write_text(json.dumps(record(), indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
