"""Reference values for the benchmark's output checks.

Nothing here imports psifoc.  Every expected value is derived by a route
the library does not use: product formulas over Fraction for Gaussian
binomials and Fibonomials, exact polynomial division for symbolic
Gaussian binomials, a dynamic program for the ordered expansion, and a
parser that evaluates rendered rational functions at rational points.
The renderers reproduce the library's documented text format so CLI
stdout can be compared byte for byte.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

#: Rational points at which symbolic results are evaluated.  None of them
#: is a root of unity, so every product formula below is defined there.
EVAL_POINTS = (Fraction(2), Fraction(-3), Fraction(1, 2))


def fib(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def norm(x):
    """Integral Fractions become ints, as the library prints them."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    return x


# -- scalar families ---------------------------------------------------------

def family_int(fam: str, n: int, q=None):
    """n-th family integer for fam in classical | fib | gauss@r."""
    if fam == "classical":
        return n
    if fam == "fib":
        return fib(n)
    return norm(sum((Fraction(q) ** i for i in range(n)), Fraction(0)))


def gauss_binom_at(n: int, k: int, q) -> Fraction:
    """Gaussian binomial at a rational q, by the product formula."""
    if k < 0 or k > n:
        return Fraction(0)
    q = Fraction(q)
    if q == 1:
        return Fraction(math.comb(n, k))
    acc = Fraction(1)
    for i in range(k):
        acc *= (1 - q ** (n - i)) / (1 - q ** (i + 1))
    return acc


def fibonomial(n: int, k: int) -> Fraction:
    if k < 0 or k > n:
        return Fraction(0)
    acc = Fraction(1)
    for i in range(k):
        acc *= Fraction(fib(n - i), fib(i + 1))
    return acc


def mutator_eigenvalue(fam: str, m: int, q=None):
    """Eigenvalue ((m+1)_psi - 1)/m_psi; degree 0 reuses degree 1."""
    m = max(m, 1)
    if fam == "classical":
        return Fraction(1)
    if fam == "fib":
        return Fraction(fib(m + 1) - 1, fib(m))
    return Fraction(q)


def binom_at_eigen(n: int, k: int, lam: Fraction) -> Fraction:
    """Binomial symbol at an eigenvalue, where it is the Gaussian
    binomial at t = lam (lam = 0 gives 1 inside the range)."""
    if k < 0 or k > n:
        return Fraction(0)
    if lam == 0:
        return Fraction(1)
    return gauss_binom_at(n, k, lam)


# -- polynomials in q, ascending coefficient lists ---------------------------

def poly_trim(p: list) -> list:
    p = [norm(c) for c in p]
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return poly_trim(out)


def gauss_binom_poly(n: int, k: int) -> list:
    """Coefficients of the symbolic Gaussian binomial: the numerator
    product of (1 - q^(n-k+i)) divided by each (1 - q^i) in turn; every
    intermediate quotient is a polynomial, so the division is exact."""
    if k < 0 or k > n:
        return []
    p = [1]
    for i in range(1, k + 1):
        e = n - k + i
        grown = p + [0] * e
        for d in range(len(p)):
            grown[d + e] -= p[d]
        quotient = [0] * (len(grown) - i)
        for d in range(len(quotient)):
            quotient[d] = grown[d] + (quotient[d - i] if d >= i else 0)
        p = poly_trim(quotient)
    return p


# -- the library's text format ------------------------------------------------

def render(x) -> str:
    x = norm(x)
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return str(x)


def render_poly(p: list) -> str:
    p = poly_trim(list(p))
    if not p:
        return "0"
    parts = []
    for deg, c in enumerate(p):
        if not c:
            continue
        negative = c < 0
        mag = -c if negative else c
        if deg == 0:
            body = render(mag)
        elif mag == 1:
            body = "q" if deg == 1 else f"q^{deg}"
        else:
            body = f"{render(mag)}*q" + (f"^{deg}" if deg > 1 else "")
        if not parts:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f" - {body}" if negative else f" + {body}")
    return "".join(parts)


_TERM_RE = re.compile(r"^(?:(\d+(?:/\d+)?)(?:\*q(?:\^(\d+))?)?|q(?:\^(\d+))?)$")


def parse_poly(text: str) -> dict:
    """Inverse of render_poly: degree -> coefficient."""
    text = text.strip()
    if text == "0":
        return {}
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    out: dict = {}
    for chunk in re.split(r" ([+-]) ", text):
        if chunk == "+":
            sign = 1
            continue
        if chunk == "-":
            sign = -1
            continue
        m = _TERM_RE.match(chunk)
        if not m:
            raise ValueError(f"unparseable term {chunk!r}")
        if m.group(1) is not None:
            coeff = Fraction(m.group(1))
            if "*q" in chunk:
                deg = int(m.group(2)) if m.group(2) else 1
            else:
                deg = 0
        else:
            coeff = Fraction(1)
            deg = int(m.group(3)) if m.group(3) else 1
        out[deg] = out.get(deg, 0) + sign * coeff
    return out


def eval_rendered(text: str, x) -> Fraction:
    """Value at q = x of a rendered scalar: a rational, a polynomial in
    q, or "(num)/(den)"."""
    m = re.match(r"^\((.*)\)/\((.*)\)$", text)
    if m:
        num, den = (parse_poly(part) for part in m.groups())
    else:
        num, den = parse_poly(text), {0: 1}
    def value(poly: dict) -> Fraction:
        return sum((c * Fraction(x) ** d for d, c in poly.items()),
                   Fraction(0))
    return value(num) / value(den)


# -- ordered expansion (A + B)^n -----------------------------------------------

def obs1_mismatches(fam: str, n: int, q=None) -> list:
    """Mismatch rows of the ordered expansion for a family.

    A raises x-degree, B raises y-degree with weight w_a, the product of
    the first a mutator eigenvalues.  The coefficient of x^a y^b after t
    steps obeys c(a, b) = c(a-1, b) + w_a c(a, b-1).  The right side is
    the binomial symbol at the eigenvalue of degree k.
    """
    lam = [mutator_eigenvalue(fam, m, q) for m in range(n + 1)]
    weights = [Fraction(1)]
    for a in range(1, n + 1):
        weights.append(weights[-1] * lam[a])
    row = {(0, 0): Fraction(1)}
    for t in range(1, n + 1):
        row = {(a, t - a): row.get((a - 1, t - a), 0)
               + weights[a] * row.get((a, t - a - 1), 0)
               for a in range(t + 1)}
    out = []
    for k in range(n + 1):
        lhs = row[(k, n - k)]
        rhs = binom_at_eigen(n, k, lam[k])
        if lhs != rhs:
            out.append({"monomial": f"x^{k}*y^{n - k}",
                        "lhs": render(lhs), "rhs": render(rhs)})
    return out


def dumps(obj, pretty: bool = False) -> str:
    return json.dumps(obj, indent=2 if pretty else None)
