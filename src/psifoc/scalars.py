"""The rational field and the scalar discipline.

A scalar carries one of two field tags:

* rational, represented by plain ``int`` or ``fractions.Fraction`` values
  (integral fractions are normalized down to ``int``);
* rational function, represented by :class:`psifoc.ratfunc.RatFunc`
  values kept in canonical form, so that equality of canonical forms is
  equality of values.

This module holds the rationals and the rules every scalar follows; the
rational-function field, its coefficient-tuple kernels and the symbolic
q live in :mod:`psifoc.ratfunc`, which only a symbolic value loads.
RatFunc derives from :class:`SymbolicScalar`, defined here, so the
functions here tell the fields apart by that base and load nothing: a
process that never meets a rational function never compiles the
polynomial code.  ``Q`` and ``RatFunc`` still resolve as attributes of
this module, on first use (PEP 562).

All arithmetic is exact; nothing in this module rounds.  One rule governs
the tags: a scalar is checked once, where a caller hands it to the
library (:func:`check`, which refuses anything but ``int``, ``Fraction``
and ``RatFunc``, floats and bools included), and a weight family fixes
its tag when it is built.  Below those entry points the code uses the
plain operators ``+ - * **``, and a checked scalar that is not a rational
is a rational function.  The one operation that needs more than an
operator is the exact quotient :func:`div`, which never yields a float.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DivisionByZero

Rational = int | Fraction


class SymbolicScalar:
    """The base of :class:`psifoc.ratfunc.RatFunc`, and of no other class:
    a scalar is a rational function exactly when it is an instance of
    this one.  It holds nothing, and lets the scalar discipline tell the
    two fields apart without loading the module of the other one."""

    __slots__ = ()


Scalar = int | Fraction | SymbolicScalar


def check(s: object) -> Scalar:
    """Return s if it is a scalar; raise TypeError naming it otherwise."""
    cls = type(s)
    if cls is int or cls is Fraction or isinstance(s, SymbolicScalar):
        return s
    if cls is bool or not isinstance(s, (int, Fraction)):
        raise TypeError(f"not a scalar: {s!r}")
    return s


def normalize(s: Scalar) -> Scalar:
    """Canonical representative: integral Fractions become ints, and a
    rational function is canonical already."""
    cls = type(s)
    if cls is int or cls is not Fraction and isinstance(s, SymbolicScalar):
        return s
    if isinstance(s, Fraction) and s.denominator == 1:
        return s.numerator
    return s


def div(a: Scalar, b: Scalar) -> Scalar:
    """Exact quotient: rationals divide to a normalized rational, never a
    float; a zero divisor raises DivisionByZero."""
    if isinstance(a, SymbolicScalar) or isinstance(b, SymbolicScalar):
        return a / b
    if b == 0:
        raise DivisionByZero(f"division of {render(a)} by zero")
    return normalize(Fraction(a) / b)


def zero_like(s: Scalar) -> Scalar:
    """The zero of the field of the checked scalar s."""
    return type(s).zero() if isinstance(s, SymbolicScalar) else 0


def one_like(s: Scalar) -> Scalar:
    """The one of the field of the checked scalar s."""
    return type(s).one() if isinstance(s, SymbolicScalar) else 1


def render(s: object) -> str:
    """Text form: rationals as p/q (or p for integers), rational functions
    as expanded polynomials over a reduced fraction.  What :func:`check`
    refuses, bools included, is refused here too."""
    cls = type(s)
    if cls is int:
        return str(s)
    if cls is not Fraction:
        check(s)
        if isinstance(s, SymbolicScalar):
            return str(s)
    if s.denominator == 1:
        return str(s.numerator)
    return f"{s.numerator}/{s.denominator}"


def _is_integer(text: str) -> bool:
    """Whether text is ASCII digits after an optional minus sign, a full
    match of ``-?[0-9]+``."""
    digits = text[1:] if text.startswith("-") else text
    return digits.isascii() and digits.isdigit()


def parse_rational(text: str) -> Rational:
    """Parse 'p' or 'p/q' into an exact rational; raises ValueError.

    p and q are ASCII digits, each with an optional leading minus sign;
    nothing else is accepted, not even surrounding whitespace: the full
    matches of ``(-?[0-9]+)(?:/(-?[0-9]+))?``."""
    num_text, slash, den_text = text.partition("/")
    if not _is_integer(num_text) or (slash and not _is_integer(den_text)):
        raise ValueError(f"not a rational: {text!r}")
    if not slash:
        return int(num_text)
    den = int(den_text)
    if den == 0:
        raise ValueError("zero denominator")
    return normalize(Fraction(int(num_text), den))


def __getattr__(name: str):
    """``Q`` and ``RatFunc`` from :mod:`psifoc.ratfunc`, loaded on first
    use, for callers that name them here; no other name of that module
    resolves on this one.  CPython 3.11 does not specialize attribute
    reads on a module that defines this hook, so the library's modules
    import the functions of this one by name."""
    if name not in ("Q", "RatFunc"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import ratfunc
    return getattr(ratfunc, name)
