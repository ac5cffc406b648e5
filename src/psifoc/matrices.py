"""Dense exact matrices, deformed Pascal and Fermat matrices, the twisted
convolution factorization of the Fermat matrix, and a brute-force oracle
counting subspaces of small vector spaces over prime fields.

Matrices with operator-valued binomial entries are materialized only after
choosing an evaluation mode: either a scalar deformation parameter t, or
an eigenvalue of the family mutator at a chosen monomial degree.  The two
are interchangeable because every operator entry is diagonal on monomials.

Matrix arithmetic is the plain dense definition, entry by entry; it
skips only the products that have a zero factor, and an entry that no
term reaches is int 0.

The Fermat matrix entries come from the factorial-quotient route
(:func:`psifoc.qhat.binomial_eigenvalue`), so the factorization check
pits them against the independent Pascal-recurrence route in
:func:`psifoc.psi.gauss_binomial`.  The matrix and the check read them
alike, row by row from the stored Gauss quotients of :mod:`psifoc.psi`,
behind one size check; the check builds no matrix.  The twisted sums of
that check are kept per parameter in one of the bottom-up tables of
:mod:`psifoc.psi`, hook by hook: hook n holds the entries a size n+1
matrix adds to a size-n one, and each sum found equal to its entry is
stored as that entry.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterable, Sequence

from . import qhat
from ._record import Frozen
from .errors import DimensionMismatch, SizeTooLarge, UnsupportedField
from .psi import (PsiFamily, _check_index, _entry, gauss_binomial,
                  twisted_sum)
from .scalars import Scalar, check, normalize, render


class ScalarMatrix:
    """Dense rectangular matrix over exact scalars.

    Entries may mix plain integers with the field elements of one tag;
    equality is entrywise equality of canonical forms.  An entry that is
    zero in both operands of ``+`` or ``-``, or zero in the matrix that
    :meth:`scale_rows` scales, is int ``0`` in the result, as an entry no
    product term reaches is in ``@``; every other entry is normalized.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Iterable[Iterable[Scalar]]):
        grid = tuple(tuple(check(v) for v in row) for row in data)
        if not grid or not grid[0]:
            raise ValueError("matrix needs at least one row and column")
        width = len(grid[0])
        if any(len(row) != width for row in grid):
            raise ValueError("ragged rows")
        self.rows = len(grid)
        self.cols = width
        self.data = grid

    @classmethod
    def _raw(cls, grid: tuple[tuple[Scalar, ...], ...]) -> "ScalarMatrix":
        """A matrix of entries already checked, as the methods below make."""
        obj = object.__new__(cls)
        obj.rows, obj.cols, obj.data = len(grid), len(grid[0]), grid
        return obj

    def entry(self, i: int, j: int) -> Scalar:
        return self.data[i][j]

    def __matmul__(self, other: "ScalarMatrix") -> "ScalarMatrix":
        if not isinstance(other, ScalarMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by "
                f"{other.rows}x{other.cols}")
        cols = tuple(zip(*other.data))
        return ScalarMatrix._raw(tuple(
            tuple([_dot(row, col) for col in cols]) for row in self.data))

    def _zip(self, other: "ScalarMatrix", op) -> "ScalarMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch(
                f"shape {self.rows}x{self.cols} vs "
                f"{other.rows}x{other.cols}")
        return ScalarMatrix._raw(tuple(
            tuple([normalize(op(a, b)) if a or b else 0
                   for a, b in zip(ra, rb)])
            for ra, rb in zip(self.data, other.data)))

    def __add__(self, other):
        if not isinstance(other, ScalarMatrix):
            return NotImplemented
        return self._zip(other, operator.add)

    def __sub__(self, other):
        if not isinstance(other, ScalarMatrix):
            return NotImplemented
        return self._zip(other, operator.sub)

    def scale_rows(self, factors: Sequence[Scalar]) -> "ScalarMatrix":
        """Row i multiplied by factors[i]; the matrix form of composing
        with a diagonal operator on the left."""
        if len(factors) != self.rows:
            raise DimensionMismatch(
                f"{len(factors)} row factors for {self.rows} rows")
        return ScalarMatrix._raw(tuple(
            tuple([normalize(f * v) if v else 0 for v in row])
            for f, row in zip(map(check, factors), self.data)))

    def apply(self, vector: Sequence[Scalar]) -> tuple[Scalar, ...]:
        if len(vector) != self.cols:
            raise DimensionMismatch(
                f"vector of length {len(vector)} for {self.cols} columns")
        return tuple([_dot(row, vector) for row in self.data])

    def __eq__(self, other):
        if not isinstance(other, ScalarMatrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and all(a == b for ra, rb in zip(self.data, other.data)
                        for a, b in zip(ra, rb)))

    def __repr__(self):
        body = "; ".join(
            ", ".join(render(v) for v in row) for row in self.data)
        return f"ScalarMatrix[{body}]"


def _dot(row: Sequence[Scalar], col: Sequence[Scalar]) -> Scalar:
    """The sum of a b over the pairs (a, b) of row and col whose two
    factors are nonzero, in order, normalized; int 0 if there is none."""
    acc = None
    for a, b in zip(row, col):
        if a and b:
            acc = a * b if acc is None else acc + a * b
    return 0 if acc is None else normalize(acc)


class ScalarMode(Frozen):
    """Evaluate binomial entries at a fixed deformation parameter."""

    __slots__ = ("t",)

    def __init__(self, t: Scalar):
        self._assign(check(t))


class EigenMode(Frozen):
    """Evaluate binomial entries at the family mutator eigenvalue of one
    monomial degree."""

    __slots__ = ("family", "degree")

    def __init__(self, family: PsiFamily, degree: int):
        self._assign(family, degree)


EvalMode = ScalarMode | EigenMode


def resolve_mode(mode: EvalMode) -> Scalar:
    """The deformation parameter a mode denotes; eigen modes resolve
    through the mutator operator before any matrix is built."""
    if isinstance(mode, ScalarMode):
        return mode.t
    if isinstance(mode, EigenMode):
        op = qhat.qhat_operator(mode.family, mode.degree)
        return qhat.eval_on_monomial(op, mode.degree)
    raise TypeError(f"not an evaluation mode: {mode!r}")


def _check_size(size: int) -> None:
    """Refuse a matrix size below 1, or one past sys.maxsize."""
    if size < 1:
        raise ValueError("size must be at least 1")
    _check_index(size)


def pascal_matrix(x0: Scalar, size: int, mode: EvalMode) -> ScalarMatrix:
    """Lower-triangular deformed Pascal matrix: entry (i, j) is
    x0^(i-j) times the binomial (i, j) at the mode's parameter."""
    check(x0)
    _check_size(size)
    t = resolve_mode(mode)
    return ScalarMatrix._raw(tuple(
        tuple([normalize(x0 ** (i - j) * gauss_binomial(i, j, t))
               for j in range(i + 1)] + [0] * (size - 1 - i))
        for i in range(size)))


def _fermat_entries(size: int, mode: EvalMode) -> tuple[Scalar, tuple]:
    """The mode's parameter t and the rows of Fermat entries (i+j, j) at t,
    by the factorial-quotient route behind the size check: a degenerate t
    raises NonInvertibleDenominator at the first vanishing quotient."""
    _check_size(size)
    t = resolve_mode(mode)
    return t, tuple(
        tuple([qhat.binomial_eigenvalue(i + j, j, t) for j in range(size)])
        for i in range(size))


def fermat_matrix(size: int, mode: EvalMode) -> ScalarMatrix:
    """Symmetric deformed Fermat matrix: entry (i, j) is the binomial
    (i+j, j) at the mode's parameter, by the factorial-quotient route."""
    return ScalarMatrix._raw(_fermat_entries(size, mode)[1])


def fermat_factorization_mismatches(size: int, mode: EvalMode) -> list[tuple]:
    """Entries where the Fermat matrix differs from its twisted
    convolution: sum over k of t^((i-k)(j-k)) (i, k) (j, k).

    The matrix side uses the factorial quotient, the sum side the
    independent recurrence; an empty list proves the factorization on
    this size at this parameter.  Returned tuples are (i, j, lhs, rhs).
    Each sum is computed once per parameter and kept; every call compares
    every entry.
    """
    # entries before sums: a degenerate t is refused as by fermat_matrix
    t, fermat = _fermat_entries(size, mode)
    hooks = [_entry(_hook_step, t, n) for n in range(size)]
    bad = []
    for i in range(size):
        for j in range(size):
            # (i, j) lies in hook max(i, j): its row part, then its column
            acc = hooks[i][j] if i >= j else hooks[j][j + 1 + i]
            if acc != fermat[i][j]:
                bad.append((i, j, fermat[i][j], acc))
    return bad


def _hook_step(seq: list, t: Scalar) -> tuple[Scalar, ...]:
    """The twisted sums of Fermat entries (n, 0) .. (n, n), then (0, n) ..
    (n-1, n), for n = len(seq): what a size n+1 matrix adds to size n.

    A sum equal to its factorial-quotient entry is stored as that entry,
    so the table holds no second copy of the matrix; a sum that differs
    is stored as computed, so every call reports it."""
    n = len(seq)
    cells = [(n, j) for j in range(n + 1)] + [(i, n) for i in range(n)]
    hook = []
    for i, j in cells:
        acc = twisted_sum(i, j, j, t)
        entry = qhat.binomial_eigenvalue(i + j, j, t)
        hook.append(entry if acc == entry else acc)
    return tuple(hook)


# ---------------------------------------------------------------------------
# Brute-force subspace counting over GF(2) and GF(3).
# ---------------------------------------------------------------------------

def _rref(rows: Sequence[Sequence[int]], p: int) -> tuple[tuple[int, ...], ...]:
    """Reduced row echelon form over GF(p): pivots 1, zeros above and
    below, zero rows dropped, rows ordered by pivot column.  Unique per
    row space, so it canonicalizes subspaces."""
    mat = [list(row) for row in rows]
    width = len(mat[0])
    rank = 0
    for col in range(width):
        pivot = None
        for i in range(rank, len(mat)):
            if mat[i][col] % p:
                pivot = i
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        mat[rank] = [(v * inv) % p for v in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [(a - f * b) % p
                          for a, b in zip(mat[i], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return tuple(tuple(row) for row in mat[:rank])


def count_subspaces(qfield: int, n: int, k: int) -> int:
    """Number of k-dimensional subspaces of GF(qfield)^n, by exhaustive
    enumeration.

    Subspaces are grown one independent vector at a time: every vector of
    the space is tried against every subspace of the previous dimension,
    and extends it exactly when the reduced row echelon form of the basis
    with the vector has one more row.  The results are deduplicated by
    those reduced bases.  No binomial formula is consulted, so the count
    is an independent oracle for Gaussian binomial evaluations.
    """
    if qfield not in (2, 3):
        raise UnsupportedField(f"subspace oracle supports GF(2) and GF(3), "
                               f"not GF({qfield})")
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    if n > 4:
        raise SizeTooLarge(f"ambient dimension {n} exceeds the enumerable "
                           f"bound 4")
    if k < 0 or k > n:
        return 0
    vectors = list(itertools.product(range(qfield), repeat=n))
    level: set[tuple] = {()}
    for _ in range(k):
        grown: set[tuple] = set()
        for basis in level:
            for v in vectors:
                reduced = _rref(basis + (v,), qfield)
                if len(reduced) > len(basis):
                    grown.add(reduced)
        level = grown
    return len(level)


def export_matrix(matrix: ScalarMatrix, fmt: str,
                  pretty: bool = False) -> str:
    """Render a matrix as csv (one line per row, trailing newline) or as
    a JSON grid of rendered scalars, indented by 2 when pretty."""
    if fmt == "csv":
        return "".join(
            ",".join(render(v) for v in row) + "\n"
            for row in matrix.data)
    if fmt == "json":
        import json
        return json.dumps([[render(v) for v in row]
                           for row in matrix.data],
                          indent=2 if pretty else None)
    raise ValueError(f"unknown export format {fmt!r}")
