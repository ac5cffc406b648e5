"""psifoc: exact arithmetic for generalized binomial calculus.

Admissible weight families (classical, Gauss q-analog, Fibonacci, custom
tables) with their binomial combinatorics, diagonal mutator operators,
quantum-plane polynomials, deformed Pascal and Fermat matrices, and
exhaustive verifiers backed by independent brute-force oracles.

Importing the package loads none of its modules: each name below is
imported from its home module on first use (PEP 562), so a program that
needs one layer, such as a CLI verb, pays for that layer alone.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module -> the names the package exports from it
_EXPORTS = {
    "errors": (
        "DeformationMismatch", "DegreeOutOfRange", "DimensionMismatch",
        "DivisionByZero", "InadmissibleFamily", "InvalidFamilyFile",
        "MixedFieldTags", "NegativeIndex", "NonInvertibleDenominator",
        "ParseError", "PoleAtPoint", "PsifocError", "SizeTooLarge",
        "UnsupportedField"),
    "matrices": (
        "EigenMode", "EvalMode", "ScalarMatrix", "ScalarMode",
        "count_subspaces", "export_matrix", "fermat_matrix",
        "pascal_matrix", "resolve_mode"),
    "psi": (
        "PsiFamily", "classical", "custom", "fibonacci", "gauss",
        "gauss_binomial", "geometric_sum", "psi_binomial", "psi_factorial",
        "psi_falling", "psi_int", "psi_weight"),
    "qhat": (
        "DiagOperator", "binomial_eigenvalue", "dilation_operator",
        "eval_on_monomial", "op_binomial", "op_factorial", "op_integer",
        "qhat_mutator", "qhat_operator"),
    "qplane": (
        "OpRealization", "QPlanePoly", "Report", "check_psi_multiplicativity",
        "explore_observation1_general", "psi_plus_power", "realization",
        "realization_check", "verify_cauchy_operator", "verify_cauchy_scalar",
        "verify_fermat_operator", "verify_gauss_binomial_theorem"),
    "scalars": (
        "Q", "RatFunc", "Scalar", "eval_ratfunc", "normalize",
        "parse_rational", "render"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
