"""Exact coefficient fields: arbitrary-precision rationals and univariate
rational functions in q over the rationals.

A scalar carries one of two field tags:

* rational, represented by plain ``int`` or ``fractions.Fraction`` values
  (integral fractions are normalized down to ``int``);
* rational function, represented by :class:`RatFunc` values kept in
  canonical form: numerator and denominator coprime, denominator monic,
  zero stored as 0/1.  Equality of canonical forms is equality of values,
  so identity verification reduces to syntactic comparison.

All arithmetic is exact; nothing in this module rounds.  One rule governs
the tags: a scalar is checked once, where a caller hands it to the
library (:func:`check`, which refuses anything but ``int``, ``Fraction``
and :class:`RatFunc`, floats included), and a weight family fixes its tag
when it is built.  Below those entry points the code uses the plain
operators ``+ - * **``; the :class:`RatFunc` overloads embed ``int`` and
``Fraction`` operands as constant functions.  The one operation that needs
more than an operator is the exact quotient :func:`div`, which never
yields a float.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

from .errors import DivisionByZero, PoleAtPoint

Rational = Union[int, Fraction]

# ---------------------------------------------------------------------------
# Dense polynomial helpers.  A polynomial is a tuple of coefficients in
# ascending degree with no trailing zeros; the zero polynomial is ().
# Coefficients are int or Fraction; integral Fractions are normalized to
# int so that the common all-integer case runs on native integers.
# ---------------------------------------------------------------------------

_PZERO: tuple = ()
_PONE: tuple = (1,)


def _norm_coeff(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


def _trim(coeffs) -> tuple:
    out = [_norm_coeff(c) for c in coeffs]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _padd(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _pneg(a: tuple) -> tuple:
    return tuple(-c for c in a)


def _psub(a: tuple, b: tuple) -> tuple:
    return _padd(a, _pneg(b))


def _pmul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return _PZERO
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            if cb:
                out[i + j] += ca * cb
    return _trim(out)


def _ppow(a: tuple, n: int) -> tuple:
    result = _PONE
    base = a
    while n:
        if n & 1:
            result = _pmul(result, base)
        base = _pmul(base, base)
        n >>= 1
    return result


def _pdivmod(a: tuple, b: tuple) -> tuple[tuple, tuple]:
    """Exact polynomial long division; coefficients may become Fractions."""
    if not b:
        raise DivisionByZero("polynomial division by zero")
    if len(a) < len(b):
        return _PZERO, a
    quot = [0] * (len(a) - len(b) + 1)
    rem = list(a)
    inv = Fraction(1) / Fraction(b[-1])
    for shift in range(len(a) - len(b), -1, -1):
        lead = rem[shift + len(b) - 1]
        if lead:
            f = lead * inv
            quot[shift] = f
            for i, cb in enumerate(b):
                rem[shift + i] -= f * cb
            rem[shift + len(b) - 1] = 0
    return _trim(quot), _trim(rem[:len(b) - 1])


def _pmonic(a: tuple) -> tuple:
    if not a:
        return _PZERO
    lead = a[-1]
    if lead == 1:
        return a
    inv = Fraction(1) / Fraction(lead)
    return _trim(c * inv for c in a)


def _pgcd(a: tuple, b: tuple) -> tuple:
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _pdivmod(a, b)[1]
    return _pmonic(a)


def _peval(a: tuple, x: Rational):
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return _norm_coeff(acc)


def _prender(a: tuple, var: str = "q") -> str:
    if not a:
        return "0"
    parts: list[str] = []
    for deg, c in enumerate(a):
        if not c:
            continue
        negative = c < 0
        mag = -c if negative else c
        if deg == 0:
            body = render(mag)
        elif mag == 1:
            body = var if deg == 1 else f"{var}^{deg}"
        else:
            body = f"{render(mag)}*{var}"
            if deg > 1:
                body += f"^{deg}"
        if not parts:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f" - {body}" if negative else f" + {body}")
    return "".join(parts)


class RatFunc:
    """Univariate rational function in q over the rationals, canonical.

    Construct from ascending coefficient sequences:
    ``RatFunc([1, 1])`` is 1 + q, ``RatFunc([0, 1], [1, 1])`` is q/(1+q).
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Iterable = (), den: Iterable = (1,)):
        canonical = _canonical_fraction(_trim(num), _trim(den))
        self.num = canonical.num
        self.den = canonical.den

    @classmethod
    def _raw(cls, num: tuple, den: tuple) -> "RatFunc":
        obj = object.__new__(cls)
        obj.num = num
        obj.den = den
        return obj

    @classmethod
    def constant(cls, c: Rational) -> "RatFunc":
        c = _norm_coeff(c)
        return cls._raw(_trim((c,)), _PONE)

    @classmethod
    def zero(cls) -> "RatFunc":
        return cls._raw(_PZERO, _PONE)

    @classmethod
    def one(cls) -> "RatFunc":
        return cls._raw(_PONE, _PONE)

    # -- arithmetic ---------------------------------------------------

    @staticmethod
    def _lift(other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction)):
            return RatFunc.constant(other)
        return None

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        if self.den == _PONE and other.den == _PONE:
            return RatFunc._raw(_padd(self.num, other.num), _PONE)
        num = _padd(_pmul(self.num, other.den), _pmul(other.num, self.den))
        return _canonical_fraction(num, _pmul(self.den, other.den))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self.__add__(other.__neg__())

    def __rsub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return other.__sub__(self)

    def __neg__(self):
        return RatFunc._raw(_pneg(self.num), self.den)

    def __mul__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        if self.den == _PONE and other.den == _PONE:
            return RatFunc._raw(_pmul(self.num, other.num), _PONE)
        return _canonical_fraction(_pmul(self.num, other.num),
                                   _pmul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        if not other.num:
            raise DivisionByZero("division by the zero rational function")
        return _canonical_fraction(_pmul(self.num, other.den),
                                   _pmul(self.den, other.num))

    def __rtruediv__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return other.__truediv__(self)

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise ValueError("rational-function powers take nonnegative "
                             "integer exponents only")
        # coprime canonical parts stay coprime under powers, and powers of
        # a monic denominator stay monic, so no re-reduction is needed
        return RatFunc._raw(_ppow(self.num, n), _ppow(self.den, n))

    def __eq__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # constants must hash like the numbers they embed, because they
        # compare equal to them
        if self.den == _PONE and len(self.num) <= 1:
            return hash(self.num[0] if self.num else 0)
        return hash((self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    def degree_pair(self) -> tuple[int, int]:
        """Degrees of numerator and denominator (zero polynomial: -1)."""
        return len(self.num) - 1, len(self.den) - 1

    def is_polynomial(self) -> bool:
        return self.den == _PONE

    def __str__(self):
        if self.den == _PONE:
            return _prender(self.num)
        return f"({_prender(self.num)})/({_prender(self.den)})"

    def __repr__(self):
        return f"RatFunc({self})"


def _canonical_fraction(num: tuple, den: tuple) -> RatFunc:
    if not den:
        raise DivisionByZero("rational function with zero denominator")
    if not num:
        return RatFunc._raw(_PZERO, _PONE)
    if den != _PONE:
        g = _pgcd(num, den)
        if g != _PONE:
            num = _pdivmod(num, g)[0]
            den = _pdivmod(den, g)[0]
        lead = den[-1]
        if lead != 1:
            inv = Fraction(1) / Fraction(lead)
            num = _trim(c * inv for c in num)
            den = _trim(c * inv for c in den)
    return RatFunc._raw(num, den)


#: The indeterminate q itself, the generator of the symbolic field.
Q = RatFunc._raw((0, 1), _PONE)

Scalar = Union[int, Fraction, RatFunc]


# ---------------------------------------------------------------------------
# The entry check and the exact quotient.
# ---------------------------------------------------------------------------

def check(s: Scalar) -> Scalar:
    """Return s if it is a scalar; raise TypeError naming it otherwise."""
    if isinstance(s, bool) or not isinstance(s, (int, Fraction, RatFunc)):
        raise TypeError(f"not a scalar: {s!r}")
    return s


def normalize(s: Scalar) -> Scalar:
    """Canonical representative: integral Fractions become ints."""
    if isinstance(s, Fraction) and s.denominator == 1:
        return s.numerator
    return s


def div(a: Scalar, b: Scalar) -> Scalar:
    """Exact quotient: rationals divide to a normalized rational, never a
    float; a zero divisor raises DivisionByZero."""
    if isinstance(a, RatFunc) or isinstance(b, RatFunc):
        return a / b
    if b == 0:
        raise DivisionByZero(f"division of {render(a)} by zero")
    return normalize(Fraction(a) / b)


def zero_like(s: Scalar) -> Scalar:
    return RatFunc.zero() if isinstance(s, RatFunc) else 0


def one_like(s: Scalar) -> Scalar:
    return RatFunc.one() if isinstance(s, RatFunc) else 1


def eval_ratfunc(f: RatFunc, q0: Rational) -> Rational:
    """Exact value of the canonical form of ``f`` at the rational point q0."""
    if not isinstance(f, RatFunc):
        raise TypeError("eval_ratfunc takes a RatFunc")
    if not isinstance(q0, (int, Fraction)) or isinstance(q0, bool):
        raise TypeError("evaluation point must be rational")
    den_val = _peval(f.den, q0)
    if den_val == 0:
        raise PoleAtPoint(f"denominator of {f} vanishes at q = {render(q0)}")
    return normalize(Fraction(_peval(f.num, q0)) / Fraction(den_val))


def render(s: Scalar) -> str:
    """Text form: rationals as p/q (or p for integers), rational functions
    as expanded polynomials over a reduced fraction."""
    if isinstance(s, RatFunc):
        return str(s)
    if isinstance(s, Fraction):
        if s.denominator == 1:
            return str(s.numerator)
        return f"{s.numerator}/{s.denominator}"
    if isinstance(s, int):
        return str(s)
    raise TypeError(f"not a scalar: {s!r}")


def parse_rational(text: str) -> Rational:
    """Parse 'p' or 'p/q' into an exact rational; raises ValueError."""
    text = text.strip()
    if "/" in text:
        num_text, _, den_text = text.partition("/")
        den = int(den_text)
        if den == 0:
            raise ValueError("zero denominator")
        return normalize(Fraction(int(num_text), den))
    return int(text)
