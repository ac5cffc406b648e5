"""psifoc: exact arithmetic for generalized binomial calculus.

Admissible weight families (classical, Gauss q-analog, Fibonacci, custom
tables) with their binomial combinatorics, diagonal mutator operators,
quantum-plane polynomials, deformed Pascal and Fermat matrices, and
exhaustive verifiers backed by independent brute-force oracles.

Importing the package loads none of its modules, and no module of the
standard library either, importlib included: each name below is imported
from its home module on first use (PEP 562), so a program that needs one
layer, such as a CLI verb, pays for that layer alone.  A CLI verb loads
``cli``, ``psi`` and ``scalars``; ``expand`` and ``verify cauchy`` add
``qhat`` and ``qplane``, the other ``verify`` forms ``matrices`` too, and
``matrix`` and ``oracle`` add ``qhat`` and ``matrices``.  Only a symbolic
value loads ``ratfunc``, the rational-function field: a verb over the
symbolic ``gauss`` family does, one over a rational family never does.
Of the standard library they load ``fractions``, and ``json`` only where
they build JSON text (see :mod:`psifoc.cli`).
"""

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
    "ratfunc": ("Q", "RatFunc", "eval_ratfunc"),
    "scalars": ("Scalar", "normalize", "parse_rational", "render"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # what ``from .module import name`` runs, without loading importlib
    value = getattr(__import__(module, globals(), None, (name,), 1), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
