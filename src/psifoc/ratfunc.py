"""The rational-function field: univariate rational functions in q over
the rationals, and the coefficient-tuple kernels behind them.

A :class:`RatFunc` is kept in canonical form: numerator and denominator
coprime, denominator monic, zero stored as 0/1.  Equality of canonical
forms is equality of values, so identity verification reduces to
syntactic comparison.  The form is reached over Z: content/primitive
split, exact division first, else a primitive PRS gcd; only the final
monic scaling may make Fractions.

The rational field and the scalar discipline live in
:mod:`psifoc.scalars`, which this module builds on; no other module
imports this one at its top.  A process loads it where a symbolic value
is about to exist (the symbolic Gauss family, the symbolic q, or a
caller that builds a RatFunc), and only there: below
:func:`psifoc.scalars.check`, a scalar that is not a rational is a
RatFunc, so every symbolic branch runs after this module has.

The :class:`RatFunc` overloads take ``int`` and ``Fraction`` operands as
they are, without building a constant function: c num/den, (num/c)/den
and (num + c den)/den keep the monic den, and they stay coprime to it
because a nonzero c is a unit and gcd(num + c den, den) = gcd(num, den) =
1, so all are canonical with no reduction.  A quotient of two
polynomials tries exact division before any reduction.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Iterable
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from operator import add, neg, sub

from .errors import DivisionByZero, PoleAtPoint
from .scalars import Rational, Scalar, SymbolicScalar, normalize, render

# ---------------------------------------------------------------------------
# Dense polynomial helpers.  A polynomial is a tuple of coefficients in
# ascending degree with no trailing zeros; the zero polynomial is ().
# Coefficients are int or Fraction; integral Fractions are normalized to
# int so that the common all-integer case runs on native integers.  A
# product loops over the shorter factor, and a monomial factor c q^d,
# shorter or longer (the recurrence multiplies by t^k), only shifts and
# scales the other, so no product walks a monomial's zeros; for the same
# reason a twisted sum (psi.twisted_sum) multiplies its binomials first
# and the twist t^((r-k)(j-k)) last.  At the symbolic q that twist is a
# shift, and shifted_product_sum multiplies packed integers (Kronecker
# substitution): each factor, a Gauss row entry and so a polynomial with
# nonnegative int coefficients, is one int with a 64-bit slot per
# coefficient, packed once and kept on its RatFunc beside the hash, a
# product of two is one big-integer product, and q^e shifts it by e
# slots.  A sum is one product per term, unpacked
# once into one RatFunc; while the sum of max(a) max(b) min(len a, len b)
# over its terms stays below 2^64, no slot carries into the next, and
# past that the factors are packed again per sum in wider slots.  The
# other tables at q step on tuples, with one RatFunc per stored entry,
# and are not packed, since each step's entries are fresh (packed, the
# quantum-plane products were slower): q_pascal_row shifts and adds the
# Gauss rows, q_binomial_steps walks a Gauss quotient, and
# shifted_product_sums adds the quantum-plane products per monomial.
# Powers of a monomial are closed-form, and a denominator of 1 is not
# powered.  The leading coefficient of a product is the product of two
# nonzero leading ones, nonzero over the integral domain Q, so an all-int
# product needs no _trim.  The canonical form is fraction-free:
# _primitive, then _pexquo, else _prs_gcd (Collins 1967; Brown 1971), and
# monic scaling last.
#
# The Gauss integer [m]_q = 1 + q + ... + q^(m-1), all ones, is the most
# common operand, and two kernels take it in O(len) by its identities:
# * product: entry j of [m]_q b is the window sum b[j-m+1] + ... + b[j],
#   the difference of two prefix sums of b;
# * the Gauss quotient step of q_binomial_steps: [m]_q (1 - q) = 1 - q^m,
#   so a [m]_q / [j]_q = a (1 - q^m) / (1 - q^j), one shifted difference,
#   and dividing d by 1 - q^j from the bottom is quot[i] = d[i] + quot[i-j],
#   one prefix sum per residue class of i mod j.
# ---------------------------------------------------------------------------

_PZERO: tuple = ()
_PONE: tuple = (1,)
_INT_ONLY = frozenset((int,))
# the slots of a packed polynomial: the machine's unsigned 64-bit integer
_SLOT_BYTES = array("Q").itemsize
_SLOT_BITS = 8 * _SLOT_BYTES
_SLOT_LIMIT = 1 << _SLOT_BITS
_BIG_ENDIAN = sys.byteorder == "big"


def _trim(out: list) -> tuple:
    """The coefficient list out as a polynomial, without its trailing
    zeros: an all-int list is stripped as it is, one with a Fraction is
    normalized first."""
    if not _INT_ONLY.issuperset(map(type, out)):
        out = [c if type(c) is int else normalize(c) for c in out]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _constant(c: Rational) -> tuple:
    """The constant polynomial c; () for zero."""
    c = normalize(c)
    return (c,) if c else _PZERO


def _padd(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    return _trim([*map(add, a, b), *a[len(b):]])


def _pshift_add(a: tuple, b: tuple, e: int) -> tuple:
    """a + q^e b: the coefficients of a below degree e are kept as they
    are."""
    if len(a) <= e:
        return a + (0,) * (e - len(a)) + b if b else a
    tail = _padd(a[e:], b)
    return a[:e] + tail if tail else _trim(list(a[:e]))


def _pneg(a: tuple) -> tuple:
    return tuple(-c for c in a)


def _pmul(a: tuple, b: tuple) -> tuple:
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return _PZERO
    if a.count(0) != len(a) - 1 and b.count(0) == len(b) - 1:
        a, b = b, a  # the longer factor is the monomial
    d = len(a) - 1
    if a.count(0) == d:
        # a is the monomial c q^d: shift b by d and scale it by c
        c = a[-1]
        if c == 1:
            return a[:d] + b if d else b
        out = [*a[:d], *(c * x for x in b)]
    elif a.count(1) == len(a):
        # a is [m]_q: a window sum of b, by padded prefix sums
        m = len(a)
        sums = [0] * m
        sums += accumulate(b)
        sums += [sums[-1]] * (m - 1)
        out = list(map(sub, sums[m:], sums))
    else:
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b, i):
                    out[j] += ca * cb
    # the leading coefficient a[-1] b[-1] is nonzero, so only a Fraction
    # coefficient, which may be integral, needs the pass through _trim
    if _INT_ONLY.issuperset(map(type, out)):
        return tuple(out)
    return _trim(out)


def _ppow(a: tuple, n: int) -> tuple:
    if not n:
        return _PONE
    if not a:
        return _PZERO
    d = len(a) - 1
    if a.count(0) == d:
        # (c q^d)^n = c^n q^(dn)
        return (0,) * (d * n) + (normalize(a[-1] ** n),)
    result = _PONE
    base = a
    while n:
        if n & 1:
            result = _pmul(result, base)
        base = _pmul(base, base)
        n >>= 1
    return result


def _primitive(a: tuple) -> tuple[int, int, tuple]:
    """Split a nonzero polynomial as n/d times a primitive integer
    polynomial (coprime coefficients; the sign is left where it is)."""
    d = lcm(*(c.denominator for c in a))
    if d != 1:
        a = tuple(c.numerator * (d // c.denominator) for c in a)
    n = gcd(*a)
    if n != 1:
        a = tuple(c // n for c in a)
    return n, d, a


def _pexquo(a: tuple, b: tuple):
    """The quotient a / b if it has integer coefficients, else None; a and
    b may have Fraction coefficients.

    For primitive a and b this decides divisibility over Q as well: by
    Gauss's lemma a rational quotient would have integer coefficients."""
    nb = len(b)
    if len(a) < nb:
        return None
    rem = list(a)
    lead_b = b[-1]
    quot = [0] * (len(a) - nb + 1)
    for shift in range(len(a) - nb, -1, -1):
        lead = rem[shift + nb - 1]
        if lead:
            f, r = divmod(lead, lead_b)
            if r:
                return None
            quot[shift] = f
            for i in range(nb - 1):
                rem[shift + i] -= f * b[i]
    if any(rem[:nb - 1]):
        return None
    return tuple(quot)


def _prs_gcd(a: tuple, b: tuple) -> tuple:
    """Primitive gcd of two primitive integer polynomials, by the
    primitive remainder sequence: each pseudo-remainder lead(b)^k * a
    mod b is computed over Z and replaced by its primitive part."""
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        rem, lead_b, nb = list(a), b[-1], len(b)
        for top in range(len(a) - 1, nb - 2, -1):
            lead = rem[top]
            if lead:
                for i in range(top):
                    rem[i] *= lead_b
                for i in range(nb - 1):
                    rem[top - nb + 1 + i] -= lead * b[i]
        rem = _trim(rem[:nb - 1])
        if not rem:
            return b
        a, b = b, _primitive(rem)[2]
    return _PONE


def _pscale(a: tuple, c: Fraction) -> tuple:
    """The integer polynomial a times the rational c."""
    p, r = c.numerator, c.denominator
    if r == 1:
        return a if p == 1 else tuple(p * x for x in a)
    return _trim([Fraction(p * x, r) for x in a])


def _peval(a: tuple, x: Rational):
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return normalize(acc)


def _prender(a: tuple) -> str:
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
            body = "q" if deg == 1 else f"q^{deg}"
        else:
            body = f"{render(mag)}*q"
            if deg > 1:
                body += f"^{deg}"
        if not parts:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f" - {body}" if negative else f" + {body}")
    return "".join(parts)


class RatFunc(SymbolicScalar):
    """Univariate rational function in q over the rationals, canonical.

    Construct from ascending coefficient sequences:
    ``RatFunc([1, 1])`` is 1 + q, ``RatFunc([0, 1], [1, 1])`` is q/(1+q).
    """

    __slots__ = ("num", "den", "_hash", "_packed")

    def __init__(self, num: Iterable = (), den: Iterable = (1,)):
        canonical = _canonical_fraction(_trim(list(num)), _trim(list(den)))
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
        return cls._raw(_constant(c), _PONE)

    @classmethod
    def zero(cls) -> "RatFunc":
        return cls._raw(_PZERO, _PONE)

    @classmethod
    def one(cls) -> "RatFunc":
        return cls._raw(_PONE, _PONE)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, RatFunc):
            if self.den == _PONE and other.den == _PONE:
                return RatFunc._raw(_padd(self.num, other.num), _PONE)
            num = _padd(_pmul(self.num, other.den),
                        _pmul(other.num, self.den))
            return _canonical_fraction(num, _pmul(self.den, other.den))
        if isinstance(other, (int, Fraction)):
            # num + c den over the same monic den is canonical: it is
            # coprime to den because num is
            return RatFunc._raw(
                _padd(self.num, _pmul(self.den, _constant(other))), self.den)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (RatFunc, int, Fraction)):
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return -self + other

    def __neg__(self):
        return RatFunc._raw(_pneg(self.num), self.den)

    def __mul__(self, other):
        if isinstance(other, RatFunc):
            if self.den == _PONE and other.den == _PONE:
                return RatFunc._raw(_pmul(self.num, other.num), _PONE)
            return _canonical_fraction(_pmul(self.num, other.num),
                                       _pmul(self.den, other.den))
        if isinstance(other, (int, Fraction)):
            # a nonzero constant is a unit: c num stays coprime to den
            c = _constant(other)
            return RatFunc._raw(_pmul(self.num, c), self.den if c else _PONE)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise DivisionByZero("division by the zero rational function")
            # num/c over the same monic den is canonical, as c num is
            inverse = _constant(1 / Fraction(other))
            return RatFunc._raw(_pmul(self.num, inverse), self.den)
        if not isinstance(other, RatFunc):
            return NotImplemented
        if not other.num:
            raise DivisionByZero("division by the zero rational function")
        if self.den == _PONE and other.den == _PONE:
            # a Gauss quotient step away from q and a family binomial
            # divide exactly: try that before the canonical form
            quot = _pexquo(self.num, other.num)
            if quot is not None:
                return RatFunc._raw(quot, _PONE)
        return _canonical_fraction(_pmul(self.num, other.den),
                                   _pmul(self.den, other.num))

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return RatFunc.constant(other) / self

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise ValueError("rational-function powers take nonnegative "
                             "integer exponents only")
        # coprime canonical parts stay coprime under powers, and powers of
        # a monic denominator stay monic, so no re-reduction is needed
        den = self.den if self.den == _PONE else _ppow(self.den, n)
        return RatFunc._raw(_ppow(self.num, n), den)

    def __eq__(self, other):
        if isinstance(other, RatFunc):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return self.den == _PONE and self.num == _constant(other)
        return NotImplemented

    def __hash__(self):
        # computed once, at the first probe: the tables keyed by q hash it
        # at every read
        try:
            return self._hash
        except AttributeError:
            pass
        # constants must hash like the numbers they embed, because they
        # compare equal to them
        if self.den == _PONE and len(self.num) <= 1:
            self._hash = hash(self.num[0] if self.num else 0)
        else:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __bool__(self):
        return bool(self.num)

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
        num_n, num_d, num = _primitive(num)
        den_n, den_d, den = _primitive(den)
        quot = _pexquo(num, den)
        if quot is not None:
            num, den = quot, _PONE
        else:
            g = _prs_gcd(num, den)
            if g != _PONE:
                num, den = _pexquo(num, g), _pexquo(den, g)
        lead = den[-1]
        num = _pscale(num, Fraction(num_n * den_d, num_d * den_n * lead))
        den = _pscale(den, Fraction(1, lead))
    return RatFunc._raw(num, den)


#: The indeterminate q itself, the generator of the symbolic field.
Q = RatFunc._raw((0, 1), _PONE)


def _packing(f: RatFunc) -> tuple:
    """(packed, top, length) of the polynomial f, whose coefficients are
    nonnegative ints, cached on f: packed is its coefficients in 64-bit
    slots as one int, None if top, its largest coefficient, does not fit a
    slot."""
    try:
        return f._packed
    except AttributeError:
        pass
    num = f.num
    top = max(num, default=0)
    f._packed = (_pack(num, _SLOT_BYTES) if top < _SLOT_LIMIT else None,
                 top, len(num))
    return f._packed


def _pack(num: tuple, width: int) -> int:
    """The nonnegative coefficients num in slots of width bytes, lowest
    degree in the lowest slot, as one int."""
    if width == _SLOT_BYTES:
        slots = array("Q", num)
        if _BIG_ENDIAN:
            slots.byteswap()
        return int.from_bytes(slots.tobytes(), "little")
    return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in num),
                          "little")


def _unpack(total: int, size: int, width: int) -> tuple:
    """The size coefficients packed in total in slots of width bytes."""
    raw = total.to_bytes(size * width, "little")
    if width == _SLOT_BYTES:
        slots = array("Q")
        slots.frombytes(raw)
        if _BIG_ENDIAN:
            slots.byteswap()
        return tuple(slots)
    return tuple(int.from_bytes(raw[i:i + width], "little")
                 for i in range(0, len(raw), width))


def shifted_product_sum(
        terms: Iterable[tuple[int, RatFunc, RatFunc]]) -> RatFunc:
    """The sum of q^e a b over the terms (e, a, b), where every a and b is
    a polynomial in q with nonnegative int coefficients, as the Gaussian
    binomials of the recurrence rows are.

    By Kronecker substitution: with one coefficient per slot, the sum is
    that of the packed products shifted by e slots, unpacked once.  Slot
    i of a product a b is at most max(a) max(b) min(len a, len b), so
    while those bounds sum below 2^64 no slot of the sum carries and the
    cached 64-bit packings serve; past that every factor is packed again
    in slots of the fewest whole bytes that hold the bound.  No terms sum
    to the zero RatFunc."""
    used = []
    bound = size = 0
    for e, a, b in terms:
        x, top_a, len_a = _packing(a)
        y, top_b, len_b = _packing(b)
        if len_a and len_b:
            bound += top_a * top_b * (len_a if len_a < len_b else len_b)
            if size < e + len_a + len_b - 1:
                size = e + len_a + len_b - 1
            used.append((e, a, b, x, y))
    if bound < _SLOT_LIMIT:
        width = _SLOT_BYTES
        total = 0
        for e, _, _, x, y in used:
            total += (x * y) << (_SLOT_BITS * e)
    else:
        width = -(-bound.bit_length() // 8)
        total = sum((_pack(a.num, width) * _pack(b.num, width))
                    << (8 * width * e) for e, a, b, _, _ in used)
    # the top slot is a sum of products of positive leading coefficients,
    # so the unpacked tuple has no trailing zero
    return RatFunc._raw(_unpack(total, size, width), _PONE)


def shifted_product_sums(
        terms: Iterable[tuple[object, int, Scalar, Scalar]]) -> dict | None:
    """For the terms (key, e, a, b), the sum of q^e a b per key as one
    RatFunc, if every a and b is a polynomial in q; else None.

    Each product is one _pmul, which shifts rather than multiplies where
    a factor is a monomial, and the products of a key add as tuples at
    their offsets.  A key whose terms cancel maps to the zero RatFunc."""
    acc: dict = {}
    for key, e, a, b in terms:
        if (type(a) is not RatFunc or type(b) is not RatFunc
                or a.den != _PONE or b.den != _PONE):
            return None
        acc[key] = _pshift_add(acc.get(key, _PZERO), _pmul(a.num, b.num), e)
    return {key: RatFunc._raw(num, _PONE) for key, num in acc.items()}


def q_integer(n: int) -> RatFunc:
    """The Gauss integer [n]_q = 1 + q + ... + q^(n-1) at the symbolic q."""
    return RatFunc._raw((1,) * n, _PONE)


def q_pascal_row(prev: tuple) -> tuple:
    """The Gaussian binomials (n, 0) .. (n, n) at q from the row of n - 1,
    whose entries are polynomials in q: (n, k) = (n-1, k-1) + q^k (n-1, k)
    is one shift and one sum of coefficient tuples, and one RatFunc per
    inner entry.  Both ends of the row are the object prev[0]."""
    one = prev[0]
    nums = [c.num for c in prev]
    return (one, *[RatFunc._raw(_pshift_add(a, b, k), _PONE)
                   for k, (a, b) in enumerate(zip(nums, nums[1:]), 1)], one)


def q_binomial_steps(start: RatFunc, d: int, steps: range) -> RatFunc:
    """start times [d+j]_q / [j]_q for each j in steps, on coefficient
    tuples, and one RatFunc at the end.  start is the Gaussian binomial
    (d+i, i) at q, a polynomial, for steps = range(i + 1, k + 1), and each
    step leaves (d+j, j), so every division is exact.

    Since [m]_q (1 - q) = 1 - q^m, a step multiplies by 1 - q^(d+j), one
    shifted difference, and divides by 1 - q^j from the bottom, one prefix
    sum per residue class of the degree mod j; the top j coefficients of
    that quotient vanish and are dropped."""
    num = start.num
    for j in steps:
        m = d + j
        out = [*num[:m], *map(sub, num[m:], num), *[0] * (m - len(num)),
               *map(neg, num[-m:])]
        for r in range(j):
            out[r::j] = accumulate(out[r::j])
        num = tuple(out[:len(out) - j])
    return RatFunc._raw(num, _PONE)


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
