"""Record the content digests of the benchmark's jobs at the default seed.

    python3 benchmarks/record_digests.py

Runs every timed job of every workload at seed 0 from the root of a source
checkout, requires each to exit as expected without a traceback and to agree
with the oracles, and writes the digest of its mathematical content to
digests.json, keyed by the job's inputs.  Run it only on code whose outputs
are known to be right: the digests are what later runs are checked against.
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
from run import TRACEBACK, Runner  # noqa: E402

DEFAULT_SEED = 0


def main() -> int:
    root = HERE.parent
    work = root / ".bench_work" / "record"
    shutil.rmtree(work, ignore_errors=True)
    digests = {}
    try:
        for name in workloads.WORKLOADS:
            workload = workloads.build(name, DEFAULT_SEED, root)
            runner = Runner(workload, root, work / name, {})
            for i, job in enumerate(workload.timed):
                if job.expect_exit != 0:
                    continue
                jobdir = runner.work / f"job{i}"
                code, stderr, _ = runner.execute(job, jobdir)
                if code != 0 or TRACEBACK in stderr:
                    print(f"{name}: {job.name} exited {code}", file=sys.stderr)
                    return 1
                artifact = json.loads((jobdir / "out" / checks.ARTIFACT[job.command]).read_text(encoding="utf-8"))
                problems = checks.oracle_problems(job, artifact, workload.oracles[job.problem])
                if problems:
                    print(f"{name}: {job.name}: {problems}", file=sys.stderr)
                    return 1
                key = checks.job_key(workload.problems[job.problem], job.args)
                digests[key] = checks.digest(checks.content(job.command, artifact))
                print(f"{name:<13} {job.name:<45} {digests[key]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (HERE / "digests.json").write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
