"""Benchmark of the dulac CLI: fixed batches of jobs, one fresh interpreter each.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the jobs import dulac from `src/`.
One client runs the jobs serially in a closed loop (the next job starts
when the previous one has exited).  Every job is checked: its exit code, no
traceback on stderr, and its outputs (see checks.py).

--trace 0  repeats the workload's batch while the next batch still fits in
           S seconds and reports the end-to-end metrics:
           batch_s      sum over the jobs of their median time over the
                        batches, a job timed from its problem being loaded
                        to main returning
           scaling_exp  exponent p of time ~ N^p fitted over the solve sweep
                        (N = terms produced; per-point median times)
           setup_s      median over job processes of spawn -> dulac.cli
                        imported and the problem loaded
           peak_rss_mb  largest peak RSS of any job process
--trace 1  alternates untraced and traced batches for S seconds and reports
           per-layer self times and operation counts from the traced ones.

Times are wall-clock seconds scaled to a reference host speed.  The host's
speed drifts by up to +-20% within seconds and between minutes, so each job
also times a fixed calibration loop in its own process just before and just
after its work (speed_probe in job.py), and its times are multiplied by
REFERENCE_PROBE_S over the loop's mean time.  The report gives the unscaled
batch_s and the median loop time next to the scaled figures.

Known-defect probes run once per batch of a traced run and once per untraced
run, are never timed, and do not make the run incorrect; they are counted in
the failed_frac this script prints, and listed with their status.  The last
line of stdout is the JSON result; the lines before it are a readable summary
and a JSON report with the per-job results and the sweep's (N, seconds) points.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

JOB_TIMEOUT_S = 150
TRACEBACK = b"Traceback (most recent call last)"
SUBCOMMANDS = list(checks.ARTIFACT)

# Job times are scaled to a reference host speed: see speed_probe in job.py.
REFERENCE_PROBE_S = 0.05

END_TO_END = {"batch_s": "s", "scaling_exp": "exponent", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer counts: metric -> traced labels whose calls it sums.
CALL_COUNTS = {
    "exponents.compare_calls": ("exponents.exp_compare", "exponents.re_compare"),
    "exponents.sign_calls": ("exponents.Exponent.re_sign", "exponents.Exponent.im_sign", "exponents.Exponent.re_below"),
    "series.mul_calls": ("series.DulacSeries.__mul__",),
    "series.add_calls": ("series.DulacSeries.__add__",),
    "ode.substitute_calls": ("ode.ODESpec.substitute",),
    "solver.extend_calls": ("solver.extend",),
    "solver.solve_coefficient_calls": ("solver.solve_coefficient",),
    "solver.linearizations": ("solver.extract_linearization",),
    "tpoly.mul_calls": ("tpoly.TPoly.__mul__",),
    "scalars.mul_calls": ("scalars.ExactScalar.__mul__",),
    "scalars.add_calls": ("scalars.ExactScalar.__add__", "scalars.ExactScalar.__sub__"),
    "gevrey.classify_calls": ("gevrey.classify",),
    "gammafn.calls": ("gammafn.gamma_abs",),
    "semigroup.decompose_calls": ("semigroup.decompose",),
    "mseries.h_norm_calls": ("mseries.h_norm",),
}


def per_layer_units() -> dict:
    units = {f"{layer}.self_s": "s" for layer in tracer.LAYERS}
    units.update({name: "count" for name in CALL_COUNTS})
    units.update({
        "series.mul_term_pairs": "count", "series.terms_submitted": "count", "series.kept_ratio": "ratio",
        "solver.steps": "count", "tpoly.max_degree": "degree", "scalars.max_bits": "bits",
        "cli.artifact_bytes": "bytes", "trace.overhead_ratio": "ratio",
    })
    units.update({f"cli.{cmd.replace('-', '_')}_s": "s" for cmd in SUBCOMMANDS})
    return units


@dataclass
class Outcome:
    job: workloads.Job
    problems: list = field(default_factory=list)
    setup_s: float | None = None  # times in reference seconds (see speed_probe)
    work_s: float | None = None
    scale: float = 1.0  # reference seconds per measured second
    terms: int | None = None
    max_bits: int = 0
    artifact_bytes: int = 0
    spans: dict | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


class Runner:
    """Runs jobs of one workload in fresh interpreters and checks them."""

    def __init__(self, workload: workloads.Workload, root: Path, work: Path, digests: dict):
        self.workload = workload
        self.work = work
        self.digests = digests
        self.inputs = work / "inputs"
        self.inputs.mkdir(parents=True)
        for name, data in workload.problems.items():
            (self.inputs / name).write_bytes(data)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.cwd = root
        self.count = 0

    def execute(self, job: workloads.Job, jobdir: Path, trace: bool = False) -> tuple:
        """Run one job with its artifacts in jobdir/out and its spans, when
        traced, in jobdir/trace.  Returns (exit code, stderr, timing marks)."""
        outdir = jobdir / "out"
        outdir.mkdir(parents=True)
        timing = jobdir / "timing.json"
        args = list(job.args)
        args[1] = str(self.inputs / job.problem)
        cmd = [sys.executable, str(HERE / "job.py"), str(timing), str(jobdir / "trace") if trace else "-",
               *args, "--output-dir", str(outdir)]
        with open(jobdir / "stdout", "wb") as out, open(jobdir / "stderr", "wb") as err:
            spawned = perf_counter()
            proc = subprocess.run(cmd, stdout=out, stderr=err, env=self.env, cwd=self.cwd, timeout=JOB_TIMEOUT_S)
        marks = json.loads(timing.read_text(encoding="utf-8")) if timing.exists() else None
        if marks is not None:
            marks["spawned"] = spawned
        return proc.returncode, (jobdir / "stderr").read_bytes(), marks

    def run(self, job: workloads.Job, trace: bool = False) -> Outcome:
        """Run one job, check it and discard its files."""
        self.count += 1
        jobdir = self.work / f"job{self.count}"
        outcome = Outcome(job)
        try:
            code, stderr, marks = self.execute(job, jobdir, trace)
            if code != job.expect_exit:
                outcome.problems.append(f"exit code {code}, expected {job.expect_exit}")
            if TRACEBACK in stderr:
                outcome.problems.append("traceback: " + stderr.decode("utf-8", "replace").strip().splitlines()[-1])
            if marks is not None:
                outcome.scale = 2 * REFERENCE_PROBE_S / (marks["probe_before"] + marks["probe_after"])
                outcome.setup_s = (marks["loaded"] - marks["spawned"] - marks["probe_before"]) * outcome.scale
                outcome.work_s = (marks["end"] - marks["loaded"]) * outcome.scale
            if outcome.ok and job.expect_exit == 0:
                self._inspect(job, jobdir / "out", outcome)
            if trace and (jobdir / "trace").exists():
                outcome.spans = tracer.summarize(tracer.load(jobdir / "trace"))
        except subprocess.TimeoutExpired:
            outcome.problems.append(f"no exit within {JOB_TIMEOUT_S} s")
        finally:
            shutil.rmtree(jobdir, ignore_errors=True)
        return outcome

    def _inspect(self, job, outdir: Path, outcome: Outcome) -> None:
        oracle = self.workload.oracles[job.problem]
        outcome.problems += checks.check_outputs(job, outdir, oracle, self.digests, self.workload.problems[job.problem])
        outcome.artifact_bytes = sum(p.stat().st_size for p in outdir.iterdir())
        if job.command == "solve" and outcome.ok:
            artifact = json.loads((outdir / checks.ARTIFACT["solve"]).read_text(encoding="utf-8"))
            terms = checks.solution_terms(artifact["solution"])
            outcome.terms = len(terms)
            outcome.max_bits = checks.max_bits(terms)

    def batch(self, jobs, trace: bool = False) -> list:
        return [self.run(job, trace) for job in jobs]


def fit_exponent(points) -> float:
    """Least-squares slope of log(seconds) against log(N)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def job_medians(batches) -> list:
    """Median seconds of each job of the batch over the given batches.  The
    machine's speed drifts over seconds, so a median per job is steadier
    than the median of whole-batch sums."""
    return [statistics.median(b[i].work_s or 0.0 for b in batches) for i in range(len(batches[0]))]


def repeat_batches(runner: Runner, seconds: float, traced: bool) -> tuple:
    """Untraced batches (and, when traced, a traced batch after each) while
    the next round still fits in the given seconds; at least one round."""
    timed = runner.workload.timed
    plain, with_trace = [], []
    deadline = perf_counter() + seconds
    while True:
        began = perf_counter()
        plain.append(runner.batch(timed))
        if traced:
            with_trace.append(runner.batch(runner.workload.jobs, trace=True))
        if perf_counter() + (perf_counter() - began) > deadline:
            return plain, with_trace


def sweep_points(batches) -> list:
    """(N, median seconds) for each sweep job that succeeded, in sweep order."""
    medians = job_medians(batches)
    points = []
    for i, o in enumerate(batches[0]):
        terms = next((b[i].terms for b in batches if b[i].terms), None)
        if o.job.sweep and terms and medians[i] > 0:
            points.append((terms, medians[i]))
    return points


def layer_figures(batch) -> tuple:
    """(times, counts) of one traced batch: per-layer self seconds and traced
    seconds per subcommand, and the deterministic operation counts."""
    times = {f"{layer}.self_s": 0.0 for layer in tracer.LAYERS}
    times.update({f"cli.{cmd.replace('-', '_')}_s": 0.0 for cmd in SUBCOMMANDS})
    calls: dict = {}
    tallies = dict.fromkeys(tracer.TALLIES, 0)
    for o in batch:
        if o.spans is None:
            continue
        for layer, t in o.spans["self_s"].items():
            times[f"{layer}.self_s"] += t * o.scale
        times[f"cli.{o.job.command.replace('-', '_')}_s"] += o.spans["top_s"].get("cli.main", 0.0) * o.scale
        for label, n in o.spans["calls"].items():
            calls[label] = calls.get(label, 0) + n
        for key, value in o.spans["tallies"].items():
            tallies[key] = max(tallies[key], value) if key == "tpoly.max_degree" else tallies[key] + value
    counts = {name: sum(calls.get(label, 0) for label in labels) for name, labels in CALL_COUNTS.items()}
    counts.update(tallies)
    counts["scalars.max_bits"] = max((o.max_bits for o in batch), default=0)
    counts["cli.artifact_bytes"] = sum(o.artifact_bytes for o in batch)
    return times, counts


def per_layer(runner: Runner, seconds: float) -> tuple:
    plain, traced = repeat_batches(runner, seconds, traced=True)
    figures = [layer_figures(b) for b in traced]
    counts = figures[0][1]
    metrics = {name: statistics.median(f[0][name] for f in figures) for name in figures[0][0]}
    metrics.update({name: value for name, value in counts.items() if name != "series.terms_kept"})
    submitted = counts["series.terms_submitted"]
    metrics["series.kept_ratio"] = counts["series.terms_kept"] / submitted if submitted else 0.0
    traced_s = sum(job_medians([[o for o in b if o.job.defect is None] for b in traced]))
    metrics["trace.overhead_ratio"] = traced_s / sum(job_medians(plain))
    report = {
        "counts_repeat": all(f[1] == counts for f in figures),
        "untraced_batches": len(plain),
        "traced_batches": len(traced),
        "counts": counts,
    }
    outcomes = [o for b in plain + traced for o in b]
    return metrics, outcomes, report


def end_to_end(runner: Runner, seconds: float) -> tuple:
    batches, _ = repeat_batches(runner, seconds, traced=False)
    probes = runner.batch(runner.workload.probes)
    outcomes = [o for b in batches for o in b] + probes
    points = sweep_points(batches)
    metrics = {
        "batch_s": sum(job_medians(batches)),
        "scaling_exp": fit_exponent(points) if len(points) > 1 else 0.0,
        "setup_s": statistics.median(o.setup_s for o in outcomes if o.setup_s is not None),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    report = {
        "batches": len(batches),
        "sweep_points": [[n, t] for n, t in points],
        "job_seconds": {o.job.name: [b[i].work_s for b in batches] for i, o in enumerate(batches[0])},
        "unscaled_batch_s": sum(statistics.median((b[i].work_s or 0.0) / b[i].scale for b in batches)
                                for i in range(len(batches[0]))),
        "speed_probe_s": statistics.median(REFERENCE_PROBE_S / o.scale for o in outcomes),
    }
    return metrics, outcomes, report


def src_loc(root: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (root / "src" / "dulac").glob("*.py"))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = HERE.parent
    if not (root / "src" / "dulac" / "cli.py").is_file():
        print(f"run.py: no dulac sources under {root / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    digests = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    workload = workloads.build(args.workload, args.seed, root)
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        runner = Runner(workload, root, work, digests)
        runner.run(workload.timed[0])  # compiles bytecode and warms the file cache
        if args.trace:
            metrics, outcomes, report = per_layer(runner, args.seconds)
            units = per_layer_units()
        else:
            metrics, outcomes, report = end_to_end(runner, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    timed = [o for o in outcomes if o.job.defect is None]
    probes = [o for o in outcomes if o.job.defect is not None]
    failed = sum(not o.ok for o in timed)
    probe_failed = sum(not o.ok for o in probes)
    failed_frac = (failed + probe_failed) / len(outcomes)
    correct = failed == 0 and report.get("counts_repeat", True)

    for name, value in metrics.items():
        print(f"{args.workload:<13} {name:<32} {value:>14.6g} {units[name]}")
    print(f"{args.workload:<13} {'failed_frac':<32} {failed_frac:>14.6g} fraction "
          f"({failed + probe_failed} of {len(outcomes)} jobs, {probe_failed} of them known-defect probes)")
    report.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "src_loc": src_loc(root),
        "failed_frac": failed_frac,
        "known_defects": sorted({(o.job.name, o.job.defect, "fails" if not o.ok else "passes") for o in probes}),
        "failures": sorted({f"{o.job.name}: {p}" for o in timed for p in o.problems}),
    })
    print(json.dumps(report, sort_keys=True))
    result = {
        "correct": bool(correct),
        "attempted": len(timed),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
