"""psifoc: exact arithmetic for generalized binomial calculus.

Admissible weight families (classical, Gauss q-analog, Fibonacci, custom
tables) with their binomial combinatorics, diagonal mutator operators,
quantum-plane polynomials, deformed Pascal and Fermat matrices, and
exhaustive verifiers backed by independent brute-force oracles.
"""

from .errors import (DeformationMismatch, DegreeOutOfRange,
                     DimensionMismatch, DivisionByZero, InadmissibleFamily,
                     InvalidFamilyFile, MixedFieldTags, NegativeIndex,
                     NonInvertibleDenominator, ParseError, PoleAtPoint,
                     PsifocError, SizeTooLarge, UnsupportedField)
from .matrices import (EigenMode, EvalMode, ScalarMatrix, ScalarMode,
                       count_subspaces, export_matrix, fermat_matrix,
                       pascal_matrix, resolve_mode,
                       verify_fermat_factorization)
from .psi import (PsiFamily, classical, custom, fibonacci, gauss,
                  gauss_binomial, psi_binomial, psi_factorial, psi_falling,
                  psi_int, psi_weight)
from .qhat import (DiagOperator, binomial_eigenvalue, dilation_operator,
                   eval_on_monomial, geometric_sum, op_binomial,
                   op_factorial, op_integer, qhat_mutator, qhat_operator)
from .qplane import (MultiplicativityCheck, OpRealization, QPlanePoly,
                     Report, check_psi_multiplicativity,
                     explore_observation1_general, psi_plus_power,
                     realization, realization_check, verify_cauchy_operator,
                     verify_cauchy_scalar, verify_fermat_operator,
                     verify_gauss_binomial_theorem)
from .scalars import (Q, RatFunc, Scalar, eval_ratfunc, normalize,
                      parse_rational, render)

__version__ = "0.1.0"

__all__ = [
    "DeformationMismatch", "DegreeOutOfRange", "DimensionMismatch",
    "DivisionByZero", "InadmissibleFamily", "InvalidFamilyFile",
    "MixedFieldTags", "NegativeIndex", "NonInvertibleDenominator",
    "ParseError", "PoleAtPoint", "PsifocError", "SizeTooLarge",
    "UnsupportedField",
    "EigenMode", "EvalMode", "ScalarMatrix", "ScalarMode",
    "count_subspaces", "export_matrix", "fermat_matrix", "pascal_matrix",
    "resolve_mode", "verify_fermat_factorization",
    "PsiFamily", "classical", "custom", "fibonacci", "gauss",
    "gauss_binomial", "psi_binomial", "psi_factorial", "psi_falling",
    "psi_int", "psi_weight",
    "DiagOperator", "binomial_eigenvalue", "dilation_operator",
    "eval_on_monomial", "geometric_sum", "op_binomial", "op_factorial",
    "op_integer", "qhat_mutator", "qhat_operator",
    "MultiplicativityCheck", "OpRealization", "QPlanePoly", "Report",
    "check_psi_multiplicativity", "explore_observation1_general",
    "psi_plus_power", "realization", "realization_check",
    "verify_cauchy_operator", "verify_cauchy_scalar",
    "verify_fermat_operator", "verify_gauss_binomial_theorem",
    "Q", "RatFunc", "Scalar", "eval_ratfunc", "normalize",
    "parse_rational", "render",
]
