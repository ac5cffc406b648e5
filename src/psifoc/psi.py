"""Admissible weight families and their scalar combinatorics.

A family assigns to each n >= 0 a scalar integer-analog n_psi with
0_psi = 0 and n_psi != 0 for every n >= 1 (admissibility).  Built-in
families: classical (n_psi = n), the Gauss q-analog
(n_psi = 1 + q + ... + q^(n-1), either symbolic in q or evaluated at a
rational point), Fibonacci (n_psi = F_n), and finite user tables.

On top of the integers the module builds factorials, falling factorials
and binomial coefficients.  It also houses the independent
Gaussian-binomial routine used as an oracle by the operator, matrix and
quantum-plane modules: a Pascal-style recurrence that never divides, so it
is total in the deformation parameter.  The two-variable convolution
expansions built from the family binomials live in :mod:`psifoc.qplane`,
as quantum-plane polynomials at t = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from . import scalars
from .errors import InadmissibleFamily, NegativeIndex
from .scalars import Rational, RatFunc, Scalar


@dataclass(frozen=True)
class PsiFamily:
    """Descriptor of an admissible weight family.

    ``kind`` is one of ``classical``, ``gauss``, ``fibonacci``, ``custom``.
    For ``gauss``, ``q0`` is the evaluation point (None means symbolic).
    For ``custom``, ``table`` lists n_psi for n = 1..len(table); index 0 of
    the family is always 0.
    """

    kind: str
    q0: Rational | None = None
    table: tuple[Scalar, ...] | None = None

    @property
    def label(self) -> str:
        if self.kind == "gauss":
            if self.q0 is None:
                return "gauss"
            return f"gauss@{scalars.render(self.q0)}"
        if self.kind == "fibonacci":
            return "fib"
        if self.kind == "custom":
            return f"custom[{len(self.table or ())}]"
        return self.kind

    @property
    def symbolic(self) -> bool:
        return self.kind == "gauss" and self.q0 is None


def classical() -> PsiFamily:
    return PsiFamily("classical")


def gauss(q0: Rational | None = None) -> PsiFamily:
    if q0 is not None:
        q0 = scalars.normalize(q0)
    return PsiFamily("gauss", q0=q0)


def fibonacci() -> PsiFamily:
    return PsiFamily("fibonacci")


def custom(values: Iterable[Scalar]) -> PsiFamily:
    return PsiFamily("custom", table=tuple(scalars.normalize(v) for v in values))


def family_zero(fam: PsiFamily) -> Scalar:
    return RatFunc.zero() if fam.symbolic else 0


def family_one(fam: PsiFamily) -> Scalar:
    return RatFunc.one() if fam.symbolic else 1


_FIB = [0, 1]


def _fib(n: int) -> int:
    while len(_FIB) <= n:
        _FIB.append(_FIB[-1] + _FIB[-2])
    return _FIB[n]


def psi_int(fam: PsiFamily, n: int) -> Scalar:
    """The family integer n_psi; zero exactly at n = 0."""
    if n < 0:
        raise NegativeIndex(f"family index {n} is negative")
    if fam.kind == "classical":
        return n
    if fam.kind == "fibonacci":
        return _fib(n)
    if fam.kind == "gauss":
        if fam.q0 is None:
            return RatFunc._raw((1,) * n, (1,)) if n else RatFunc.zero()
        acc: Scalar = 0
        power: Scalar = 1
        for _ in range(n):
            acc += power
            power *= fam.q0
        if acc == 0 and n >= 1:
            raise InadmissibleFamily(
                f"gauss family at q0 = {scalars.render(fam.q0)} has "
                f"{n}_psi = 0")
        return scalars.normalize(acc)
    if fam.kind == "custom":
        table = fam.table or ()
        if n == 0:
            return 0
        if n > len(table):
            raise InadmissibleFamily(
                f"custom table of length {len(table)} has no entry for "
                f"n = {n}")
        value = table[n - 1]
        if value == 0:
            raise InadmissibleFamily(f"custom table has {n}_psi = 0")
        return value
    raise ValueError(f"unknown family kind {fam.kind!r}")


def psi_factorial(fam: PsiFamily, n: int) -> Scalar:
    """Product n_psi (n-1)_psi ... 1_psi; the empty product is one."""
    if n < 0:
        raise NegativeIndex(f"factorial of negative index {n}")
    acc = family_one(fam)
    for j in range(1, n + 1):
        acc = scalars.mul(acc, psi_int(fam, j))
    return acc


def psi_falling(fam: PsiFamily, x: int, k: int) -> Scalar:
    """Product of k consecutive family integers descending from x_psi."""
    if k < 0:
        raise NegativeIndex(f"falling factorial of negative length {k}")
    acc = family_one(fam)
    for i in range(k):
        idx = x - i
        if idx < 0:
            raise NegativeIndex(
                f"falling factorial from x = {x} of length {k} reaches "
                f"index {idx}")
        acc = scalars.mul(acc, psi_int(fam, idx))
    return acc


def psi_binomial(fam: PsiFamily, n: int, k: int) -> Scalar:
    """Family binomial coefficient: the falling factorial of length k from
    n over the k-factorial; exactly zero outside 0 <= k <= n."""
    if n < 0:
        raise ValueError("psi_binomial requires n >= 0")
    if k < 0 or k > n:
        return family_zero(fam)
    return scalars.div(psi_falling(fam, n, k), psi_factorial(fam, k))


def psi_weight(fam: PsiFamily, n: int) -> Scalar:
    """The weight the family attaches to degree n: the reciprocal of the
    n-th factorial.  Families are identified by their integers, but the
    weight sequence is what generalizes 1/n!."""
    return scalars.div(family_one(fam), psi_factorial(fam, n))


def gauss_binomial(n: int, k: int, t: Scalar) -> Scalar:
    """Gaussian binomial coefficient at an arbitrary parameter t.

    Computed by the Pascal-style recurrence
    C(n, k) = C(n-1, k-1) + t^k C(n-1, k), which never divides; any t is
    admissible, including roots of unity where quotient formulas break.
    """
    if n < 0:
        raise ValueError("gauss_binomial requires n >= 0")
    if k < 0 or k > n:
        return scalars.zero_like(t)
    return _gauss_row(n, t)[k]


@lru_cache(maxsize=None, typed=True)
def _gauss_row(n: int, t: Scalar) -> tuple[Scalar, ...]:
    one = scalars.one_like(t)
    if n == 0:
        return (one,)
    prev = _gauss_row(n - 1, t)
    row = [one]
    t_pow = one
    for k in range(1, n):
        t_pow = t_pow * t
        row.append(prev[k - 1] + t_pow * prev[k])
    row.append(one)
    return tuple(row)
