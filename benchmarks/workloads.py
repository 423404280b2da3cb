"""The benchmark's workloads: problem files and the batch of CLI jobs run on them.

Every input comes from the workload seed: the coefficients of the generated
equations and the `--seed` given to check-norms.  The program sees only the
problem files written from these definitions.

factorial     tests/data problems over basis ["1"]: integer exponents, degree-0
              coefficients.  Exponent ordering inside series canonicalization
              dominates, with many merges on one coordinate.
log-resonant  dy - y - a x - b y^2 = 0 with the resonant prefix a t x: few
              terms, deg c_k = k and growing rational heights, so TPoly and
              ExactScalar products dominate and exponent work is small.
semigroup-2d  dy - (1+i) y - a x y - b y^2 = 0 over basis ["1","1+1i"] with
              prefix c x^(1+i): the number of terms grows quadratically with
              the cutoff and many exponents share a real part, so ordering
              takes the imaginary tie-break.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from oracles import Factorial, FactorialNonlinear, LogResonant, Semigroup2D


@dataclass(frozen=True)
class Job:
    command: str
    problem: str
    cutoff: int | None = None
    seed: int | None = None
    expect_exit: int = 0
    sweep: bool = False  # one point of the workload's solve sweep (scaling_exp)
    defect: str | None = None  # a probe of this known defect: run once, never timed

    @property
    def args(self) -> tuple:
        out = [self.command, self.problem]
        if self.cutoff is not None:
            out += ["--cutoff", str(self.cutoff)]
        if self.seed is not None:
            out += ["--seed", str(self.seed)]
        return tuple(out)

    @property
    def name(self) -> str:
        return " ".join(self.args)


@dataclass
class Workload:
    name: str
    problems: dict  # file name -> bytes
    oracles: dict  # file name -> Oracle
    jobs: list

    @property
    def timed(self) -> list:
        return [j for j in self.jobs if j.defect is None]

    @property
    def probes(self) -> list:
        return [j for j in self.jobs if j.defect is not None]


def small_rational(rng: random.Random) -> Fraction:
    """A nonzero rational of height at most 3."""
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))


def _q(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _term(coeff: str, x: int, y) -> dict:
    return {"coeff": coeff, "x": x, "y": list(y)}


def _problem_bytes(data: dict) -> bytes:
    return (json.dumps(data, indent=2, sort_keys=True) + "\n").encode("utf-8")


def factorial(seed: int, root: Path) -> Workload:
    rng = random.Random(f"factorial:{seed}")
    data = root / "tests" / "data"
    problems = {name: (data / name).read_bytes() for name in ("euler.json", "nonlinear.json", "euler_gens.json")}
    oracles = {"euler.json": Factorial(), "nonlinear.json": FactorialNonlinear(), "euler_gens.json": Factorial()}
    jobs = [Job("solve", "nonlinear.json", cutoff, sweep=True) for cutoff in (10, 20, 30)]
    jobs += [
        Job("solve", "euler.json", 80),
        Job("verify", "nonlinear.json", 20),
        Job("iota", "euler_gens.json", 40),
        Job("check-norms", "euler_gens.json", seed=rng.randrange(10000)),
        Job("analyze", "nonlinear.json"),
        Job("reduce", "nonlinear.json"),
        Job("suggest-generators", "nonlinear.json"),
    ]
    return Workload("factorial", problems, oracles, jobs)


def log_resonant(seed: int, root: Path) -> Workload:
    rng = random.Random(f"log-resonant:{seed}")
    a, b = small_rational(rng), small_rational(rng)
    problem = {
        "basis": ["1"],
        "cutoff": 12,
        "generators": [["1/1"]],
        "ode": {"n": 1, "terms": [
            _term("1/1", 0, (0, 1)),
            _term("-1/1", 0, (1, 0)),
            _term(_q(-a), 1, (0, 0)),
            _term(_q(-b), 0, (2, 0)),
        ]},
        "prefix": [{"exp": ["1/1"], "poly": ["0/1", _q(a)]}],
    }
    name = "log_resonant.json"
    jobs = [Job("solve", name, cutoff, sweep=True) for cutoff in (8, 12, 16)]
    jobs += [
        Job("verify", name, 12),
        Job("iota", name, 8),
        Job("check-norms", name, seed=rng.randrange(10000)),
        Job("suggest-generators", name),
        Job("reduce", name),
        # The prefix exponent is a root of L: analyze reports it undecidable.
        Job("analyze", name, expect_exit=4),
    ]
    return Workload("log-resonant", {name: _problem_bytes(problem)}, {name: LogResonant(a, b)}, jobs)


def semigroup_2d(seed: int, root: Path) -> Workload:
    rng = random.Random(f"semigroup-2d:{seed}")
    a, b, c = small_rational(rng), small_rational(rng), small_rational(rng)
    problem = {
        "basis": ["1", "1+1i"],
        "cutoff": 6,
        "generators": [["1/1", "0/1"], ["0/1", "1/1"]],
        "ode": {"n": 1, "terms": [
            _term("1/1", 0, (0, 1)),
            _term("-1/1-1/1i", 0, (1, 0)),
            _term(_q(-a), 1, (1, 0)),
            _term(_q(-b), 0, (2, 0)),
        ]},
        "prefix": [{"exp": ["0/1", "1/1"], "poly": [_q(c)]}],
    }
    name = "semigroup_2d.json"
    jobs = [Job("solve", name, cutoff, sweep=True) for cutoff in (4, 6, 7)]
    jobs += [
        Job("iota", name, 6),
        Job("suggest-generators", name),
        Job("reduce", name),
        Job("analyze", name, expect_exit=4),
        Job("check-norms", name, seed=rng.randrange(10000),
            defect="src/dulac/cli.py:423 kappa=2 redraws randrange per coordinate: ValueError zero multi-index"),
        Job("verify", name, 4,
            defect="src/dulac/gevrey.py:194 consecutive terms share Re lambda: gap = 0, ZeroDivisionError"),
    ]
    return Workload("semigroup-2d", {name: _problem_bytes(problem)}, {name: Semigroup2D(a, b, c)}, jobs)


WORKLOADS = {"factorial": factorial, "log-resonant": log_resonant, "semigroup-2d": semigroup_2d}


def build(name: str, seed: int, root: Path) -> Workload:
    return WORKLOADS[name](seed, root)
