"""Self-test of the benchmark's correctness checks.

    python3 benchmarks/selftest.py

Runs a few factorial and semigroup-2d jobs at seed 0 and shows that the
checks accept their outputs as written and reject them after one
coefficient is corrupted: a solution coefficient (caught by the oracle)
and a coefficient of the reduced equation (caught by the recorded digest).
It also shows that a job that prints a traceback is counted as failed.
Exits 0 when every check behaves as expected.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from run import Runner  # noqa: E402


def corrupt_first_coefficient(path: Path, terms_of) -> None:
    """Add 1 to the real part of the first coefficient of the first term."""
    artifact = json.loads(path.read_text(encoding="utf-8"))
    poly = terms_of(artifact)[0]["poly"]
    re, im = checks.scalar(poly[0])
    re += 1
    poly[0] = f"{re.numerator}/{re.denominator}"
    if im:
        poly[0] += f"{'+' if im > 0 else '-'}{abs(im.numerator)}/{im.denominator}i"
    path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def expect_caught(runner: Runner, workload, job, terms_of, digests) -> list:
    jobdir = runner.work / job.command
    runner.execute(job, jobdir)
    path = jobdir / "out" / checks.ARTIFACT[job.command]
    args = (job, jobdir / "out", workload.oracles[job.problem], digests, workload.problems[job.problem])
    clean = checks.check_outputs(*args)
    corrupt_first_coefficient(path, terms_of)
    caught = checks.check_outputs(*args)
    print(f"{job.name}: as written {clean or 'accepted'}; corrupted {caught or 'ACCEPTED'}")
    return [] if not clean and caught else [job.name]


def main() -> int:
    root = HERE.parent
    digests = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    work = root / ".bench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    wrong = []
    try:
        factorial = workloads.build("factorial", 0, root)
        runner = Runner(factorial, root, work / "factorial", digests)
        by_name = {job.name: job for job in factorial.timed}
        wrong += expect_caught(runner, factorial, by_name["solve euler.json --cutoff 80"],
                               lambda a: a["solution"]["terms"], digests)
        wrong += expect_caught(runner, factorial, by_name["reduce nonlinear.json"],
                               lambda a: a["N"][0]["series"]["terms"], digests)

        semigroup = workloads.build("semigroup-2d", 0, root)
        runner = Runner(semigroup, root, work / "semigroup-2d", digests)
        probe = next(job for job in semigroup.probes if job.command == "verify")
        outcome = runner.run(probe)
        print(f"{probe.name}: {outcome.problems or 'ACCEPTED'}")
        if not any(p.startswith("traceback") for p in outcome.problems):
            wrong.append(probe.name)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest:", "FAIL " + "; ".join(wrong) if wrong else "PASS")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
