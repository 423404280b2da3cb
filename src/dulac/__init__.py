"""Exact arithmetic for Dulac series (polynomial-in-log coefficients, complex
exponents), an Euler-derivation ODE solver with resonance detection, growth
order classification in the Gevrey scale, and the semigroup/multivariate
machinery with weighted-norm estimate checks.

The public names below are imported from their submodule on first use (PEP
562), so `import dulac` loads no submodule and no mpmath.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
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
    "solver": """LinearData ReducedEquation SolutionState extend extract_linearization
        reduce_equation solve_coefficient""",
    "gevrey": "CSV_COLUMNS GevreyReport RhoRow classify fit_growth normalized_coeffs",
    "semigroup": "Generators choose_R decompose exponent_gaps suggest_generators validate_generators",
    "mseries": "MSeries fit_degree_K iota iota_inv",
    "norms": "NormParams check_lemma5 check_lemma6 h_norm majorant_bound",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
