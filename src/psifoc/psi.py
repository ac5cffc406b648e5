"""Admissible weight families and their scalar combinatorics.

A family assigns to each n >= 0 a scalar integer-analog n_psi with
0_psi = 0 and n_psi != 0 for every n >= 1 (admissibility).  Built-in
families: classical (n_psi = n), the Gauss q-analog
(n_psi = 1 + q + ... + q^(n-1), either symbolic in q or evaluated at a
rational point), Fibonacci (n_psi = F_n), and finite user tables.

On top of the integers the module builds factorials, falling factorials
and binomial coefficients.  It also houses the Gauss integers [n]_t at any
parameter t, and the independent Gaussian-binomial routine used as an
oracle by the operator, matrix and quantum-plane modules: a Pascal-style
recurrence that never divides, so it is total in t.  The twisted
convolution sum reads its factors from that recurrence alone.  Each of
these sequences, the Fibonacci numbers, the quantum-plane powers of
:mod:`psifoc.qplane` and the twisted sums of the Fermat check in
:mod:`psifoc.matrices` is kept as one list per parameter,
grown bottom-up under one lock, so values do not depend on call order or
thread interleaving.  The Gauss binomial as a quotient of Gauss integers,
at the symbolic q of the Gauss family or at any operator eigenvalue of
:mod:`psifoc.qhat`, is stored once per (n, min(k, n - k), t), and a new
entry steps from the nearest one stored on its diagonal, so a row sweep
costs one product and one exact division per entry.  Both live in one
dict, ``_memo``, and ``_memo.clear()`` empties every store.  At the
symbolic q the rows and the quotient steps run on coefficient tuples in
:mod:`psifoc.ratfunc`, which wraps one RatFunc per stored entry.  That
module is imported inside the symbolic branches only, which run once a
RatFunc exists, so a rational family never loads it.  Factorials
and falling factorials multiply rationals by a balanced product tree and
rational functions by a left fold.  Binomials take two routes: the stored
quotient for the symbolic Gauss family, and the falling factorial over the
factorial for every other family.
The two-variable convolution expansions built from the family binomials
live in :mod:`psifoc.qplane`, as quantum-plane polynomials at t = 1.
"""

from __future__ import annotations

import sys
from _thread import RLock
from collections.abc import Callable, Iterable

from ._record import Frozen
from .errors import (InadmissibleFamily, MixedFieldTags, NegativeIndex,
                     NonInvertibleDenominator)
from .scalars import (Rational, Scalar, SymbolicScalar, check, div,
                      normalize, one_like, render, zero_like)


class PsiFamily(Frozen):
    """Descriptor of an admissible weight family.

    ``kind`` is one of ``classical``, ``gauss``, ``fibonacci``, ``custom``.
    For ``gauss``, ``q0`` is the evaluation point (None means symbolic).
    For ``custom``, ``table`` lists n_psi for n = 1..len(table); index 0 of
    the family is always 0.

    A kind outside those four is refused with ValueError.  The family's
    field tag is fixed here: a non-rational ``q0`` is refused with
    TypeError, and a table mixing rationals with rational functions with
    MixedFieldTags.
    """

    __slots__ = ("kind", "q0", "table")

    def __init__(self, kind: str, q0: Rational | None = None,
                 table: tuple[Scalar, ...] | None = None):
        if kind not in ("classical", "gauss", "fibonacci", "custom"):
            raise ValueError(f"unknown family kind {kind!r}")
        if q0 is not None:
            check(q0)
            if isinstance(q0, SymbolicScalar):
                raise TypeError(f"gauss point must be rational, not "
                                f"{q0!r}")
            q0 = normalize(q0)
        if table is not None:
            table = tuple(normalize(check(v)) for v in table)
            if len({isinstance(v, SymbolicScalar) for v in table}) > 1:
                raise MixedFieldTags("custom table mixes rationals with "
                                     "rational functions")
        self._assign(kind, q0, table)

    @property
    def label(self) -> str:
        if self.kind == "gauss":
            if self.q0 is None:
                return "gauss"
            return f"gauss@{render(self.q0)}"
        if self.kind == "fibonacci":
            return "fib"
        if self.kind == "custom":
            return f"custom[{len(self.table or ())}]"
        return self.kind

    @property
    def symbolic(self) -> bool:
        """Whether the family's integers are rational functions of q."""
        if self.kind == "custom":
            return bool(self.table) and isinstance(self.table[0],
                                                   SymbolicScalar)
        return self.kind == "gauss" and self.q0 is None


def classical() -> PsiFamily:
    return PsiFamily("classical")


def gauss(q0: Rational | None = None) -> PsiFamily:
    return PsiFamily("gauss", q0=q0)


def fibonacci() -> PsiFamily:
    return PsiFamily("fibonacci")


def custom(values: Iterable[Scalar]) -> PsiFamily:
    return PsiFamily("custom", table=tuple(values))


def family_zero(fam: PsiFamily) -> Scalar:
    return _ratfunc().RatFunc.zero() if fam.symbolic else 0


def family_one(fam: PsiFamily) -> Scalar:
    return _ratfunc().RatFunc.one() if fam.symbolic else 1


def psi_int(fam: PsiFamily, n: int) -> Scalar:
    """The family integer n_psi; zero exactly at n = 0."""
    if n < 0:
        raise NegativeIndex(f"family index {n} is negative")
    if n == 0:
        return family_zero(fam)
    if fam.kind == "classical":
        return n
    if fam.kind == "fibonacci":
        return _entry(_fib_step, None, n)
    if fam.kind == "gauss":
        if fam.q0 is None:
            return _ratfunc().q_integer(n)
        value = geometric_sum(fam.q0, n)
        if value == 0:
            raise InadmissibleFamily(
                f"gauss family at q0 = {render(fam.q0)} has "
                f"{n}_psi = 0")
        return value
    table = fam.table or ()
    if n > len(table):
        raise InadmissibleFamily(
            f"custom table of length {len(table)} has no entry for n = {n}")
    value = table[n - 1]
    if value == 0:
        raise InadmissibleFamily(f"custom table has {n}_psi = 0")
    return value


def psi_factorial(fam: PsiFamily, n: int) -> Scalar:
    """Product n_psi (n-1)_psi ... 1_psi; the empty product is one."""
    if n < 0:
        raise NegativeIndex(f"factorial of negative index {n}")
    return _product([psi_int(fam, j) for j in range(1, n + 1)],
                    family_one(fam))


def psi_falling(fam: PsiFamily, x: int, k: int) -> Scalar:
    """Product of k consecutive family integers descending from x_psi."""
    if k < 0:
        raise NegativeIndex(f"falling factorial of negative length {k}")
    factors = []
    for i in range(k):
        idx = x - i
        if idx < 0:
            raise NegativeIndex(
                f"falling factorial from x = {x} of length {k} reaches "
                f"index {idx}")
        factors.append(psi_int(fam, idx))
    return _product(factors, family_one(fam))


def _product(factors: list, one: Scalar) -> Scalar:
    """The normalized product of factors, one when there are none; the
    field of one picks the order.  Rationals multiply by a balanced tree,
    adjacent pairs and then pairs of those products: a left fold multiplies
    a growing product by each small factor, which for Fibonacci
    factorials, of about n^2/10 digits, is quadratic in the digits.
    Rational functions fold left from one: each factor is short there, and
    :mod:`psifoc.ratfunc` multiplies by [j]_q in one pass, where a tree
    would multiply two long polynomials."""
    if isinstance(one, SymbolicScalar):
        for factor in factors:
            one = one * factor
        return one
    while len(factors) > 1:
        paired = [a * b for a, b in zip(factors[::2], factors[1::2])]
        factors = paired + factors[-1:] if len(factors) % 2 else paired
    return normalize(factors[0] if factors else one)


def psi_binomial(fam: PsiFamily, n: int, k: int) -> Scalar:
    """Family binomial coefficient: the falling factorial of length k from
    n over the k-factorial; exactly zero outside 0 <= k <= n."""
    if n < 0:
        raise ValueError("psi_binomial requires n >= 0")
    if k < 0 or k > n:
        return family_zero(fam)
    # [i]_q never vanishes, so the symbolic gauss family takes the stored
    # quotient, which walks the shorter side of (n, k) = (n, n-k); every
    # other family reads the factors in psi_falling's and then
    # psi_factorial's order, so the first bad index is the one reported
    if fam.kind == "gauss" and fam.symbolic:
        return _gauss_quotient(n, k, _ratfunc().Q)
    return div(psi_falling(fam, n, k), psi_factorial(fam, k))


def _gauss_quotient(n: int, k: int, t: Scalar) -> Scalar:
    """The Gaussian binomial (n, k) at a checked t, rational or a rational
    function, for 0 <= k <= n, either side: on the shorter side
    s = min(k, n-k), the product of [n-s+1]_t .. [n]_t over [1]_t .. [s]_t,
    divided as it is multiplied.  Step i takes acc = acc [n-s+i]_t / [i]_t,
    an exact quotient that leaves the binomial (n-s+i, i), far smaller at
    the symbolic q than the falling factorial.

    The quotient starts from the highest entry (n-s+i, i) stored on its
    diagonal, or from one, and takes the steps i+1 .. s from there: in a
    row sweep, or a Fermat matrix filled row by row, the neighbour
    (n-1, s-1) is stored and the entry costs one product and one exact
    division.  Among such t only 1 and -1 are roots of unity, so only
    [i]_-1 vanishes, at every even i: a miss at t = -1 with n - s >= 2
    raises NonInvertibleDenominator, worded as the binomial symbol (n k)
    of :mod:`psifoc.qhat`, the only caller that passes -1.  An index past
    sys.maxsize is refused before any table grows."""
    d, short = (k, n - k) if 2 * k > n else (n - k, k)
    field = type(t)
    key = (_gauss_quotient, field, t, d, short)
    value = _memo.get(key)
    if value is not None:
        return value
    if t == -1 and d >= 2:
        raise NonInvertibleDenominator(
            f"binomial symbol ({n} {k}) has vanishing denominator at "
            f"eigenvalue -1")
    _check_index(n)
    with _GROW:
        value = _memo.get(key)
        if value is None:
            i = next((i for i in range(short - 1, 0, -1)
                      if (_gauss_quotient, field, t, d, i) in _memo), 0)
            acc = (_memo[_gauss_quotient, field, t, d, i] if i
                   else one_like(t))
            steps = range(i + 1, short + 1)
            kernels = _q_kernels(t)
            if kernels is not None:
                acc = kernels.q_binomial_steps(acc, d, steps)
            else:
                for j in steps:
                    acc = div(acc * _entry(_sum_step, t, d + j),
                              _entry(_sum_step, t, j))
            value = _memo[key] = acc
    return value


def psi_weight(fam: PsiFamily, n: int) -> Scalar:
    """The weight the family attaches to degree n: the reciprocal of the
    n-th factorial.  Families are identified by their integers, but the
    weight sequence is what generalizes 1/n!."""
    return div(family_one(fam), psi_factorial(fam, n))


def gauss_binomial(n: int, k: int, t: Scalar) -> Scalar:
    """Gaussian binomial coefficient at an arbitrary parameter t.

    Computed by the Pascal-style recurrence
    C(n, k) = C(n-1, k-1) + t^k C(n-1, k), which never divides; any t is
    admissible, including roots of unity where quotient formulas break.
    """
    check(t)
    if n < 0:
        raise ValueError("gauss_binomial requires n >= 0")
    if k < 0 or k > n:
        return zero_like(t)
    return _entry(_row_step, t, n)[k]


def geometric_sum(t: Scalar, n: int) -> Scalar:
    """The Gauss integer [n]_t: the sum of t^j for j < n.

    The closed form (1 - t^n)/(1 - t) is singular at t = 1, which occurs
    for every degree of the classical family; the sum is total.  At the
    symbolic q it is the closed form 1 + q + ... + q^(n-1): a table
    reaching it would hold O(n^2) coefficients.
    """
    check(t)
    if n < 0:
        raise ValueError("geometric_sum requires n >= 0")
    kernels = _q_kernels(t)
    if kernels is not None:
        return kernels.q_integer(n)
    return _entry(_sum_step, t, n)


_field = None


def _ratfunc():
    """The rational-function field :mod:`psifoc.ratfunc`, for the symbolic
    branches: imported by the first symbolic value, so a rational family
    never loads it, and read from a global after that, since an import
    statement costs about a microsecond, as much as a warm binomial.  The
    global is set only once the import statement returns, which waits on
    the module's import lock, so a thread never sees the module half
    run."""
    global _field
    if _field is None:
        from . import ratfunc
        _field = ratfunc
    return _field


def _q_kernels(t: Scalar):
    """:mod:`psifoc.ratfunc`, whose kernels step on coefficient tuples, if
    the checked t is the symbolic q; None for any other t.  A rational t
    answers at the first test and loads nothing."""
    if isinstance(t, SymbolicScalar):
        field = _ratfunc()
        if t == field.Q:
            return field
    return None


def twisted_sum(r: int, s: int, j: int, t: Scalar) -> Scalar:
    """The sum over k of t^((r-k)(j-k)) (r, k) (s, j-k), each Gaussian
    binomial (n, k) read from the recurrence rows of :func:`gauss_binomial`,
    so it is total in t.  The twisted Cauchy identity says it is (r+s, j);
    at (i, j, j) it factors the Fermat entry (i+j, j), since
    (j, j-k) = (j, k).

    Every factor is read first, (r, k) then (s, j-k) for k ascending.  At
    the symbolic q every row entry is a polynomial with nonnegative int
    coefficients, the twist is a shift, and
    :func:`psifoc.ratfunc.shifted_product_sum` sums the products of the
    factors' packed integers; any other t takes the fold of scalar
    operators."""
    # outside max(0, j-s) <= k <= min(r, j) a binomial factor vanishes
    terms = [((r - k) * (j - k), gauss_binomial(r, k, t),
              gauss_binomial(s, j - k, t))
             for k in range(max(0, j - s), min(r, j) + 1)]
    kernels = _q_kernels(t)
    if kernels is not None:
        return kernels.shifted_product_sum(terms)
    total = zero_like(t)
    # the twist goes on last, so the binomials multiply without its zeros
    for e, a, b in terms:
        total = total + a * b * t ** e
    return normalize(total)


# Every memo store is one entry of _memo, keyed by the function that grows
# it, then the field of t, t and any indices, so equal parameters of two
# fields, 2 and RatFunc.constant(2), never share an entry.  At
# (step, type(t), t) is the list of step's entries at t grown so far:
# step(seq, t) returns entry len(seq) from the entries before it.  At
# (_gauss_quotient, type(t), t, n - s, s) is one requested Gauss quotient
# (n, k), s = min(k, n - k); the entries (n - s + i, i) of one diagonal are
# the steps of one quotient, and the steps between requested entries are
# not kept, so a single large request stores one entry.  Entries only
# grow, one at a time, under _GROW, so an entry read outside it is final.
# The lock is reentrant because a step may read another store: the
# quantum-plane power step reads the rows, and the Fermat hook step the
# rows and the Gauss quotients, whose steps read the sums.  It is the
# _thread.RLock that threading.RLock() returns, without loading threading.
_memo: dict = {}
_GROW = RLock()


def _check_index(n: int) -> None:
    """Refuse an index past sys.maxsize with OverflowError: no list of that
    length fits, so an operator or a matrix of that size checks it first,
    as :func:`_entry` does inline on every table read."""
    if n > sys.maxsize:
        raise OverflowError(f"index {n} exceeds sys.maxsize, no list fits")


def _entry(step: Callable, t: Scalar | None, n: int):
    if n > sys.maxsize:
        raise OverflowError(f"index {n} exceeds sys.maxsize, no list fits")
    seq = _memo.get((step, type(t), t))
    if seq is None or len(seq) <= n:
        with _GROW:
            seq = _memo.setdefault((step, type(t), t), [])
            while len(seq) <= n:
                seq.append(step(seq, t))
    return seq[n]


def _fib_step(seq: list, _t: None) -> int:
    return len(seq) if len(seq) < 2 else seq[-1] + seq[-2]


def _sum_step(seq: list, t: Scalar) -> Scalar:
    # [n]_t = 1 + t [n-1]_t
    return normalize(1 + t * seq[-1]) if seq else zero_like(t)


def _row_step(seq: list, t: Scalar) -> tuple[Scalar, ...]:
    if not seq:
        return (one_like(t),)
    prev = seq[-1]
    kernels = _q_kernels(t)
    if kernels is not None:
        return kernels.q_pascal_row(prev)
    one = prev[0]
    row = [one]
    t_pow = one
    for k in range(1, len(prev)):
        t_pow = t_pow * t
        row.append(normalize(prev[k - 1] + t_pow * prev[k]))
    return (*row, one)
