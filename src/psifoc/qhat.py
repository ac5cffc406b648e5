"""Diagonal mutator operators on the truncated monomial basis.

For a weight family the mutator operator multiplies the degree-m monomial
by lambda_m = ((m+1)_psi - 1) / m_psi.  Every operator built from it here
(operator integers, factorials, binomial symbols) is again diagonal on
monomials, so operators are stored as eigenvalue tables and all algebra is
pointwise.  That makes operator identities exhaustively checkable: an
identity of diagonal operators holds iff it holds at every eigenvalue, and
:func:`per_eigenvalue` evaluates such a check once per distinct eigenvalue
and spreads the result back over the degrees.

Operator integers read [n]_lambda from :mod:`psifoc.psi`, and operator
factorials multiply them, both once per distinct eigenvalue.  A binomial symbol at any eigenvalue, rational or
symbolic, divides as it multiplies, in the Gauss quotient of
:mod:`psifoc.psi`, whose store it shares with the symbolic Gauss
:func:`psifoc.psi.psi_binomial`: each entry steps from the nearest one
stored on its diagonal n - k, so a Fermat matrix filled row by row costs
one product and one exact division per entry.

The degree-0 eigenvalue of the defining formula is 0/0; by convention it
is set to the degree-1 eigenvalue, which keeps the Gauss family exactly
constant.  The dilation operator (x^m goes to q0^m x^m) is provided under
its own name; it is a different operator from the mutator.
"""

from __future__ import annotations

import json
import operator
from typing import Any, Callable

from . import scalars
from ._record import Frozen
from .errors import (DegreeOutOfRange, DimensionMismatch,
                     NonInvertibleDenominator)
from .psi import (PsiFamily, _check_index, _gauss_quotient, _product,
                  family_one, geometric_sum, psi_int)
from .scalars import Scalar


class DiagOperator(Frozen):
    """Operator sending x^m to eigenvalues[m] * x^m for 0 <= m <= n_trunc.

    Sums add eigenvalues pointwise, composition multiplies them pointwise,
    and powers are pointwise powers; all three stay diagonal.
    """

    __slots__ = ("eigenvalues",)

    def __init__(self, eigenvalues: tuple[Scalar, ...]):
        for value in eigenvalues:
            scalars.check(value)
        self._assign(eigenvalues)

    @property
    def n_trunc(self) -> int:
        return len(self.eigenvalues) - 1

    def _zip(self, other: "DiagOperator", op) -> "DiagOperator":
        if len(self.eigenvalues) != len(other.eigenvalues):
            raise DimensionMismatch(
                f"operators truncated at degrees {self.n_trunc} and "
                f"{other.n_trunc}")
        return DiagOperator(tuple(map(
            scalars.normalize, map(op, self.eigenvalues, other.eigenvalues))))

    def __add__(self, other: "DiagOperator") -> "DiagOperator":
        if not isinstance(other, DiagOperator):
            return NotImplemented
        return self._zip(other, operator.add)

    def __mul__(self, other: "DiagOperator") -> "DiagOperator":
        if not isinstance(other, DiagOperator):
            return NotImplemented
        return self._zip(other, operator.mul)

    def __pow__(self, n: int) -> "DiagOperator":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise ValueError("operator powers take nonnegative exponents")
        return DiagOperator(tuple(scalars.normalize(v ** n)
                                  for v in self.eigenvalues))

    def to_json(self, pretty: bool = False) -> str:
        entries = [{"degree": m, "eigenvalue": scalars.render(v)}
                   for m, v in enumerate(self.eigenvalues)]
        return json.dumps(entries, indent=2 if pretty else None)

    def __repr__(self):
        body = ", ".join(scalars.render(v) for v in self.eigenvalues)
        return f"DiagOperator([{body}])"


def qhat_operator(fam: PsiFamily, n_trunc: int) -> DiagOperator:
    """Mutator operator of a family, truncated at the given degree."""
    if n_trunc < 0:
        raise ValueError("truncation degree must be nonnegative")
    _check_index(n_trunc)
    one = family_one(fam)
    ints = [psi_int(fam, m) for m in range(1, max(n_trunc, 1) + 2)]
    values = [scalars.div(after - one, before)
              for before, after in zip(ints, ints[1:])]
    # degree 0 would be 0/0; reuse the degree-1 eigenvalue, which is
    # computed even at truncation 0
    return DiagOperator(tuple(values[:1] + values)[:n_trunc + 1])


def dilation_operator(q0: Scalar, n_trunc: int) -> DiagOperator:
    """Scaling substitution x -> q0*x on monomials: x^m gets q0^m."""
    scalars.check(q0)
    if n_trunc < 0:
        raise ValueError("truncation degree must be nonnegative")
    _check_index(n_trunc)
    return DiagOperator(tuple(scalars.normalize(q0 ** m)
                              for m in range(n_trunc + 1)))


def binomial_eigenvalue(n: int, k: int, lam: Scalar) -> Scalar:
    """Operator binomial symbol evaluated at one eigenvalue: the factorial
    quotient [n]! / ([k]! [n-k]!) of geometric sums at lam, the stored
    Gauss quotient of :mod:`psifoc.psi`, which divides as it multiplies
    over the shorter side of (n, k).  Where defined it equals the Gaussian
    binomial at t = lam; at lam = -1, where the denominator has the factor
    [2]_lam = 0 once max(k, n-k) >= 2, the quotient raises
    NonInvertibleDenominator naming the symbol, by design; the recurrence
    form in :func:`psifoc.psi.gauss_binomial` is the total companion."""
    scalars.check(lam)
    if k < 0 or k > n:
        return scalars.zero_like(lam)
    return _gauss_quotient(n, k, lam)


_UNSEEN = object()


def per_eigenvalue(op: DiagOperator, fn: Callable[[Scalar], Any]) -> list:
    """Evaluate fn once per distinct eigenvalue of op and return its values
    degree by degree.

    Eigenvalues are distinct by field tag as well as by value: 2,
    ``Fraction(2)`` and ``RatFunc.constant(2)`` compare and hash alike,
    and each gets fn's value at its own tag.  A NonInvertibleDenominator
    raised by fn is raised again with ``degree`` set to the first degree
    carrying the offending eigenvalue.
    """
    seen: dict = {}
    values = []
    for m, lam in enumerate(op.eigenvalues):
        # one probe per degree: a Fraction is hashed anew at every probe
        key = (type(lam), lam)
        value = seen.get(key, _UNSEEN)
        if value is _UNSEEN:
            try:
                value = seen[key] = fn(lam)
            except NonInvertibleDenominator as exc:
                raise NonInvertibleDenominator(f"{exc} (degree {m})",
                                               degree=m) from None
        values.append(value)
    return values


def op_integer(n: int, op: DiagOperator) -> DiagOperator:
    """Operator integer: geometric sum of the first n powers of op, once
    per distinct eigenvalue."""
    if n < 0:
        raise ValueError("op_integer requires n >= 0")
    return DiagOperator(tuple(
        per_eigenvalue(op, lambda lam: geometric_sum(lam, n))))


def op_factorial(n: int, op: DiagOperator) -> DiagOperator:
    """Pointwise product of op_integer(j, op) for j = 1..n, once per
    distinct eigenvalue, by :func:`psifoc.psi._product` in the field of
    the eigenvalue; empty is the identity."""
    if n < 0:
        raise ValueError("op_factorial requires n >= 0")
    return DiagOperator(tuple(per_eigenvalue(op, lambda lam: _product(
        [geometric_sum(lam, j) for j in range(1, n + 1)],
        scalars.one_like(lam)))))


def op_binomial(n: int, k: int, op: DiagOperator) -> DiagOperator:
    """Operator binomial symbol: factorial quotient, degree by degree.

    Returns the zero operator outside 0 <= k <= n.  Raises
    NonInvertibleDenominator naming the offending degree when a
    denominator eigenvalue vanishes.
    """
    if n < 0:
        raise ValueError("op_binomial requires n >= 0")
    return DiagOperator(tuple(
        per_eigenvalue(op, lambda lam: binomial_eigenvalue(n, k, lam))))


def eval_on_monomial(op: DiagOperator, m: int) -> Scalar:
    """Eigenvalue of the operator on the degree-m monomial."""
    if m < 0 or m > op.n_trunc:
        raise DegreeOutOfRange(
            f"degree {m} outside truncation 0..{op.n_trunc}")
    return op.eigenvalues[m]


def qhat_mutator(a, b, op: DiagOperator):
    """Mutator combination of two matrices: a@b - op applied after b@a.

    ``a`` and ``b`` are square matrices over the same truncated basis as
    ``op`` (anything exposing rows, cols, __matmul__, __sub__ and
    scale_rows); vanishing of the result says the matrices are muting
    variables for the operator.
    """
    if a.rows != a.cols or b.rows != b.cols or a.rows != b.rows:
        raise DimensionMismatch(
            f"mutator needs square matrices of equal size, got "
            f"{a.rows}x{a.cols} and {b.rows}x{b.cols}")
    if a.rows != len(op.eigenvalues):
        raise DimensionMismatch(
            f"matrix size {a.rows} does not match operator truncated at "
            f"degree {op.n_trunc}")
    return (a @ b) - (b @ a).scale_rows(op.eigenvalues)
