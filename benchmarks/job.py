"""Run one dulac CLI job in this fresh interpreter, as `python -m dulac` would.

    python3 job.py TIMING_FILE TRACE_DIR|- dulac-arguments...

Writes to TIMING_FILE the perf_counter readings (CLOCK_MONOTONIC, shared by
all processes of the machine) at which `dulac.cli` was imported, the problem
file was loaded and `main` returned, so that the parent can split the job
into set-up (spawn to problem loaded) and work, and the time of a speed probe
run before and after the job.  With a TRACE_DIR the public callables of
every dulac layer are traced and the spans written there.
An exception escaping `main` propagates, so its traceback reaches stderr as
a user would see it.
"""

import json
import sys
from fractions import Fraction
from functools import cmp_to_key
from pathlib import Path
from time import perf_counter


def speed_probe() -> float:
    """Seconds a fixed loop of the interpreter work dulac does (Fraction
    arithmetic, allocation, a comparison sort) takes at the current speed.

    The host's speed drifts by up to +-20% within seconds and between
    minutes (other tenants of the machine), and a job's time drifts with it.
    The parent scales the job's times by this loop's time, taken in the job's
    own process just before and just after the job.
    """
    began = perf_counter()
    for _ in range(5):
        acc, items = Fraction(0), []
        for i in range(1, 300):
            acc += Fraction(i, i + 1) * Fraction(1, i * i + 1)
            items.append((Fraction(i % 17, 3), Fraction(i % 5, 7), i))
        items.sort(key=cmp_to_key(lambda a, b: (a > b) - (a < b)))
    return perf_counter() - began


def main() -> int:
    timing_path, trace_dir, *argv = sys.argv[1:]
    import dulac.cli as cli

    marks = {"probe_before": speed_probe(), "imported": perf_counter()}
    load_problem = getattr(cli, "_load_problem", None)
    if load_problem is not None:
        def timed_load(*args, **kwargs):
            problem = load_problem(*args, **kwargs)
            marks["loaded"] = perf_counter()
            return problem

        cli._load_problem = timed_load

    tracer = None
    if trace_dir != "-":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        marks["imported"] = perf_counter()
    try:
        return cli.main(argv)
    finally:
        marks["end"] = perf_counter()
        marks.setdefault("loaded", marks["imported"])
        marks["probe_after"] = speed_probe()
        Path(timing_path).write_text(json.dumps(marks), encoding="utf-8")
        if tracer is not None:
            tracer.dump(Path(trace_dir))


if __name__ == "__main__":
    sys.exit(main())
