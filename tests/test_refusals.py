"""Refusals: each guarded call raises its named error with its message."""

import os
import tempfile
from unittest import mock

import pytest

from psifoc import cli, matrices, psi, qhat, qplane, ratfunc, scalars
from psifoc.errors import (DimensionMismatch, InvalidFamilyFile,
                           NegativeIndex, NonInvertibleDenominator,
                           PsifocError)
from psifoc.matrices import ScalarMatrix, ScalarMode
from psifoc.ratfunc import Q, RatFunc


def _empty_table():
    """Resolve a custom family whose file holds only blank lines."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "empty.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n\n")
        return cli.to_family(f"custom:{path}")


def _trunc(raw):
    with mock.patch.dict(os.environ, {"PSIFOC_TRUNC": raw}):
        return cli._default_trunc()


_FIB = psi.fibonacci()
_OP = qhat.qhat_operator(psi.classical(), 2)
_ONE = ScalarMatrix([[1]])

REFUSALS = [
    ("cli-empty-table", _empty_table, InvalidFamilyFile,
     "empty family table"),
    ("cli-negative-trunc", lambda: _trunc("-1"), PsifocError,
     "PSIFOC_TRUNC must be nonnegative"),
    ("matrix-empty", lambda: ScalarMatrix([]), ValueError,
     "at least one row and column"),
    ("matrix-sum-shape", lambda: _ONE + ScalarMatrix([[1, 2]]),
     DimensionMismatch, "shape 1x1 vs 1x2"),
    ("matrix-scale-rows", lambda: _ONE.scale_rows([1, 2]),
     DimensionMismatch, "2 row factors for 1 rows"),
    ("matrix-apply", lambda: _ONE.apply((1, 2)), DimensionMismatch,
     "vector of length 2 for 1 columns"),
    ("resolve-mode", lambda: matrices.resolve_mode(2), TypeError,
     "not an evaluation mode: 2"),
    ("pascal-size", lambda: matrices.pascal_matrix(1, 0, ScalarMode(2)),
     ValueError, "size must be at least 1"),
    ("fermat-size", lambda: matrices.fermat_matrix(0, ScalarMode(2)),
     ValueError, "size must be at least 1"),
    ("fermat-check-size",
     lambda: matrices.fermat_factorization_mismatches(0, ScalarMode(2)),
     ValueError, "size must be at least 1"),
    # the check reads the matrix entries row by row before any twisted
    # sum, so at t = -1 the first vanishing quotient is the entry (0, 2)
    ("fermat-check-minus-one",
     lambda: matrices.fermat_factorization_mismatches(3, ScalarMode(-1)),
     NonInvertibleDenominator,
     "binomial symbol (2 2) has vanishing denominator at eigenvalue -1"),
    ("fermat-check-symbolic-minus-one",
     lambda: matrices.fermat_factorization_mismatches(
         3, ScalarMode(RatFunc.constant(-1))),
     NonInvertibleDenominator,
     "binomial symbol (2 2) has vanishing denominator at eigenvalue -1"),
    ("psi-family-kind", lambda: psi.PsiFamily("bogus"), ValueError,
     "unknown family kind 'bogus'"),
    ("psi-int", lambda: psi.psi_int(_FIB, -1), NegativeIndex,
     "family index -1 is negative"),
    ("psi-factorial", lambda: psi.psi_factorial(_FIB, -1), NegativeIndex,
     "factorial of negative index -1"),
    ("psi-falling", lambda: psi.psi_falling(_FIB, 3, -1), NegativeIndex,
     "falling factorial of negative length -1"),
    ("gauss-binomial", lambda: psi.gauss_binomial(-1, 0, 2), ValueError,
     "gauss_binomial requires n >= 0"),
    ("geometric-sum", lambda: psi.geometric_sum(2, -1), ValueError,
     "geometric_sum requires n >= 0"),
    ("dilation", lambda: qhat.dilation_operator(2, -1), ValueError,
     "truncation degree must be nonnegative"),
    ("op-integer", lambda: qhat.op_integer(-1, _OP), ValueError,
     "op_integer requires n >= 0"),
    ("op-factorial", lambda: qhat.op_factorial(-1, _OP), ValueError,
     "op_factorial requires n >= 0"),
    ("op-binomial", lambda: qhat.op_binomial(-1, 0, _OP), ValueError,
     "op_binomial requires n >= 0"),
    ("qplane-power", lambda: qplane.QPlanePoly.x(Q) ** -1, ValueError,
     "quantum-plane powers take nonnegative exponents"),
    ("psi-plus-power", lambda: qplane.psi_plus_power(_FIB, -1), ValueError,
     "psi_plus_power requires n >= 0"),
    ("multiplicativity",
     lambda: qplane.check_psi_multiplicativity(_FIB, 0, -1), ValueError,
     "exponents must be nonnegative"),
    ("binomial-theorem", lambda: qplane.verify_gauss_binomial_theorem(-1),
     ValueError, "n_max must be nonnegative"),
    ("cauchy-scalar", lambda: qplane.verify_cauchy_scalar(-1, 0, 0, 2),
     ValueError, "r and s must be nonnegative"),
    ("cauchy-operator",
     lambda: qplane.verify_cauchy_operator(_FIB, 0, -1, 0, 2), ValueError,
     "r and s must be nonnegative"),
    ("realization", lambda: qplane.realization(2, 0), ValueError,
     "truncation must be at least 1"),
    ("realization-check", lambda: qplane.realization_check(2, 1), ValueError,
     "need n >= 2 to see a commutation"),
    ("obs1", lambda: qplane.explore_observation1_general(_FIB, -1),
     ValueError, "n must be nonnegative"),
    ("eval-ratfunc", lambda: ratfunc.eval_ratfunc(2, 1), TypeError,
     "eval_ratfunc takes a RatFunc"),
    ("eval-point", lambda: ratfunc.eval_ratfunc(Q, True), TypeError,
     "evaluation point must be rational"),
    ("render", lambda: scalars.render(1.5), TypeError,
     "not a scalar: 1.5"),
    # render refuses exactly what check refuses, bools included
    ("check-true", lambda: scalars.check(True), TypeError,
     "not a scalar: True"),
    ("render-true", lambda: scalars.render(True), TypeError,
     "not a scalar: True"),
    ("render-false", lambda: scalars.render(False), TypeError,
     "not a scalar: False"),
]


@pytest.mark.parametrize("call, error, fragment",
                         [row[1:] for row in REFUSALS],
                         ids=[row[0] for row in REFUSALS])
def test_refusal(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)


def test_cli_fermat_refusal_names_the_symbol_and_degree(tmp_path, capsys):
    # the custom family's mutator has eigenvalue -1 at degree 2
    table = tmp_path / "table.txt"
    table.write_text("1\n2\n-1\n1\n", encoding="utf-8")
    code = cli.main(["verify", "fermat", "--family", f"custom:{table}",
                     "--size", "3", "--maxdeg", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "binomial symbol (2 2)" in err and "(degree 2)" in err
