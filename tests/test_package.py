"""The package namespace: public names resolve lazily from their submodules."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import dulac

from .util import child_env, code_lines, line_counts

# Every public name of the package with the submodule that defines it.
PUBLIC = {
    "errors": """AllDerivativesVanish BasisMismatch CutoffIncrease DependentGenerators
        DerivativeYnZeroWarning DomainError DulacError ExactValueRequired
        ExponentOutsideSemigroup HypothesisViolation IndeterminateRoot LinearDataDrift
        NonpositiveRealPart NonpositiveValuation NonProgressingResidual
        PreconditionViolated Resonance SchemaError SlopeUndetermined UndecidableComparison""",
    "scalars": "ExactScalar",
    "exponents": "BasisEntry Exponent ExponentBasis exp_compare re_compare",
    "tpoly": "TPoly",
    "numeric": "ConditionReport check_conditions poly_norm roots_of_L",
    "gammafn": "gamma_abs",
    "series": "INF DulacSeries",
    "ode": "ODESpec",
    "solver": """LinearData ReducedEquation SolutionState extend extract_linearization reduce_equation
        solve_coefficient""",
    "gevrey": "CSV_COLUMNS GevreyReport RhoRow classify fit_growth normalized_coeffs",
    "semigroup": "Generators choose_R decompose exponent_gaps suggest_generators validate_generators",
    "mseries": "MSeries fit_degree_K iota iota_inv",
    "norms": "NormParams check_lemma5 check_lemma6 h_norm majorant_bound",
}


def test_import_loads_no_submodule():
    code = (
        "import sys, dulac; "
        "print(sorted(m for m in sys.modules if m.startswith(('dulac.', 'mpmath'))))"
    )
    env = child_env()
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


def test_exact_core_loads_no_mpmath():
    # floats enter through dulac.numeric; the exact layers never import it
    code = (
        "import sys, dulac.tpoly, dulac.series, dulac.ode, dulac.solver, dulac.semigroup, dulac.mseries; "
        "print(sorted(m for m in sys.modules if m.startswith('mpmath')))"
    )
    env = child_env()
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_no_dataclasses_or_inspect():
    # a CLI job starts a fresh interpreter: the value classes are written out,
    # not generated by dataclasses, whose import pulls in inspect and ast
    code = (
        "import sys, dulac.cli; "
        "print(sorted(m for m in sys.modules if m in ('dataclasses', 'inspect')))"
    )
    env = child_env()
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


# The dulac layers each subcommand may load beyond the ones every job loads,
# and whether it loads mpmath.
_EVERY_JOB = {"cli", "errors", "exponents", "ode", "scalars", "series", "tpoly"}
_SUBCOMMAND_LAYERS = {
    "solve": ({"solver"}, False),
    "analyze": ({"solver", "numeric"}, True),
    "verify": ({"solver", "numeric", "gevrey", "gammafn"}, True),
    "reduce": ({"solver", "numeric"}, True),
    "iota": ({"solver", "semigroup", "mseries"}, False),
    "check-norms": ({"semigroup", "mseries", "norms", "numeric", "gammafn"}, True),
    "suggest-generators": ({"semigroup"}, False),
}


@pytest.mark.parametrize("command", sorted(_SUBCOMMAND_LAYERS))
def test_subcommand_loads_only_its_layers(command, tmp_path):
    # a job imports its layers after parsing argv and before loading the
    # problem, so the imports count as set-up and none is left for the work;
    # what they made is then in the oldest gc generation, not in the young
    # ones the work's first collections traverse; no job loads csv
    code = (
        "import gc, json, sys, dulac.cli as cli\n"
        "def loaded():\n"
        "    return {m for m in sys.modules if m.startswith(('dulac.', 'mpmath'))}\n"
        "load, marks = cli._load_problem, {}\n"
        "def watched_load(*args):\n"
        "    marks['at_load'] = loaded()\n"
        "    marks['young'] = len(gc.get_objects(0)) + len(gc.get_objects(1))\n"
        "    return load(*args)\n"
        "cli._load_problem = watched_load\n"
        "code = cli.main(sys.argv[1:])\n"
        "at_load = marks['at_load']\n"
        "print(json.dumps({'code': code, 'later': sorted(loaded() - at_load),\n"
        "    'layers': sorted(m[6:] for m in at_load if m.startswith('dulac.')),\n"
        "    'mpmath': 'mpmath' in at_load, 'young': marks['young'], 'csv': 'csv' in sys.modules}))\n"
    )
    problem = Path(__file__).parent / "data" / "euler_gens.json"
    env = child_env()
    out = subprocess.run(
        [sys.executable, "-c", code, command, str(problem), "--output-dir", str(tmp_path)],
        capture_output=True, text=True, check=True, env=env,
    )
    report = json.loads(out.stdout.strip().splitlines()[-1])
    layers, mpmath = _SUBCOMMAND_LAYERS[command]
    assert report["code"] == 0
    assert report["layers"] == sorted(_EVERY_JOB | layers)
    assert report["mpmath"] is mpmath
    assert report["later"] == []
    assert report["young"] < 100  # thousands when the imports' objects stay young
    assert report["csv"] is False  # the CSV artifacts have their own writer


def test_public_names_resolve_to_submodule_objects():
    names = {name for names in PUBLIC.values() for name in names.split()}
    assert set(dulac.__all__) == names | {"__version__"}
    for module, listed in PUBLIC.items():
        sub = importlib.import_module(f"dulac.{module}")
        for name in listed.split():
            assert getattr(dulac, name) is getattr(sub, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        dulac.no_such_name


def test_submodule_import_still_works():
    from dulac import cli, errors

    assert cli.main is importlib.import_module("dulac.cli").main
    assert errors.SchemaError is dulac.SchemaError


_SOURCE = '''"""A module docstring,
on two lines."""

# a comment
import os  # a trailing comment does not hide the code


def f():
    """One line."""
    # an indented comment
    s = """a string that is not a docstring"""
    return s


class C:
    """A class docstring."""

    x = 1
'''


def test_code_lines_skip_blank_comment_and_docstring_lines(tmp_path):
    # the rule CI reports src/dulac's size by: import, def, s =, return, class, x =
    assert code_lines(_SOURCE) == 6
    (tmp_path / "b.py").write_text(_SOURCE, encoding="utf-8")
    (tmp_path / "a.py").write_text("x = 1\n\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    assert line_counts(tmp_path) == [("a.py", 2, 1), ("b.py", 18, 6)]
