"""The package namespace: public names resolve lazily from their submodules."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dulac

# Every public name of the package with the submodule that defines it.
PUBLIC = {
    "errors": """AllDerivativesVanish BasisMismatch CutoffIncrease DependentGenerators
        DerivativeYnZeroWarning DomainError DulacError ExactValueRequired
        ExponentOutsideSemigroup HypothesisViolation IndeterminateRoot LinearDataDrift
        NonpositiveRealPart NonpositiveValuation NonProgressingResidual
        PreconditionViolated Resonance SchemaError SlopeUndetermined UndecidableComparison""",
    "scalars": "ExactScalar",
    "exponents": "DEFAULT_PRECISION MAX_PRECISION BasisEntry Exponent ExponentBasis exp_compare re_compare",
    "tpoly": "TPoly",
    "numeric": "poly_norm",
    "gammafn": "gamma_abs",
    "series": "INF DulacSeries",
    "ode": "ODESpec",
    "solver": """ConditionReport LinearData ReducedEquation SolutionState check_conditions extend
        extract_linearization reduce_equation reduced_residual roots_of_L solve_coefficient""",
    "gevrey": "CSV_COLUMNS GevreyReport RhoRow classify fit_growth normalized_coeffs",
    "semigroup": """Generators choose_R compute_kcal decompose exponent_gaps minimal_shell
        suggest_generators validate_generators""",
    "mseries": """MSeries NormParams check_lemma5 check_lemma6 fit_degree_K h_norm iota iota_inv
        majorant_bound""",
}


def test_import_loads_no_submodule():
    code = (
        "import sys, dulac; "
        "print(sorted(m for m in sys.modules if m.startswith(('dulac.', 'mpmath'))))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(dulac.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


def test_exact_core_loads_no_mpmath():
    # floats enter through dulac.numeric; the exact layers never import it
    code = (
        "import sys, dulac.tpoly, dulac.series, dulac.ode; "
        "print(sorted(m for m in sys.modules if m.startswith('mpmath')))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(dulac.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


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
