"""Exact field arithmetic: canonical forms, evaluation, tag discipline."""

import copy
import operator
import pickle
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from psifoc import ratfunc, scalars
from psifoc.errors import DivisionByZero, MixedFieldTags, PoleAtPoint
from psifoc.matrices import ScalarMatrix, ScalarMode, pascal_matrix
from psifoc.psi import custom, gauss, gauss_binomial, psi_binomial
from psifoc.qhat import (DiagOperator, binomial_eigenvalue,
                         dilation_operator, geometric_sum)
from psifoc.qplane import (MonomialMap, QPlanePoly, realization_check,
                           verify_cauchy_scalar)
from psifoc.ratfunc import Q, RatFunc, eval_ratfunc
from psifoc.scalars import render


def test_rational_add():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)


def test_ratfunc_cancellation():
    # (q^2 - 1)/(q - 1) reduces to q + 1
    f = RatFunc([-1, 0, 1], [-1, 1])
    assert f == RatFunc([1, 1])
    assert f.num == (1, 1) and f.den == (1,)


def test_empty_power_is_one():
    assert RatFunc([1, 1]) ** 0 == RatFunc.one()
    assert (DiagOperator((Fraction(7, 3), 0)) ** 0).eigenvalues == (1, 1)


def test_negative_power_rejected():
    with pytest.raises(ValueError):
        Q ** -1
    with pytest.raises(ValueError):
        DiagOperator((2, 3)) ** -1


def test_eval_gauss_binomial_42_at_2():
    # expand the (4, 2) Gaussian binomial by hand: 1 + q + 2q^2 + q^3 + q^4
    # and substitute q = 2: 1 + 2 + 8 + 8 + 16 = 35
    f = RatFunc([1, 1, 2, 1, 1])
    assert eval_ratfunc(f, 2) == 35


def test_eval_identity():
    assert eval_ratfunc(Q, 1) == 1


def test_eval_pole():
    f = RatFunc([1], [1, -1])
    with pytest.raises(PoleAtPoint):
        eval_ratfunc(f, 1)


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        scalars.div(1, 0)
    with pytest.raises(DivisionByZero):
        scalars.div(Q, RatFunc.zero())
    with pytest.raises(DivisionByZero):
        RatFunc([1], [])


def test_mixed_tags_rejected():
    with pytest.raises(MixedFieldTags):
        custom([Fraction(1, 2), Q])
    with pytest.raises(MixedFieldTags):
        custom([Q, 3])
    with pytest.raises(MixedFieldTags):
        custom([2, RatFunc([1, 1])])


# every place a caller hands the library a scalar
_ENTRIES = {
    "gauss": lambda x: gauss(x),
    "custom": lambda x: custom([1, x]),
    "ScalarMode": lambda x: ScalarMode(x),
    "gauss_binomial": lambda x: gauss_binomial(4, 2, x),
    "verify_cauchy_scalar": lambda x: verify_cauchy_scalar(2, 2, 2, x),
    "geometric_sum": lambda x: geometric_sum(x, 3),
    "binomial_eigenvalue": lambda x: binomial_eigenvalue(4, 2, x),
    "dilation_operator": lambda x: dilation_operator(x, 3),
    "realization_check": lambda x: realization_check(x, 3),
    "pascal_matrix x0": lambda x: pascal_matrix(x, 3, ScalarMode(2)),
    "QPlanePoly t": lambda x: QPlanePoly(x, {(1, 0): 1}),
    "QPlanePoly coefficient": lambda x: QPlanePoly(1, {(1, 0): x}),
    "DiagOperator": lambda x: DiagOperator((1, x)),
    "ScalarMatrix": lambda x: ScalarMatrix([[1, x]]),
    "ScalarMatrix.scale_rows": lambda x: ScalarMatrix([[1]]).scale_rows([x]),
}


@pytest.mark.parametrize("entry", sorted(_ENTRIES))
def test_float_refused_where_it_enters(entry):
    with pytest.raises(TypeError, match=r"not a scalar: 1\.5$"):
        _ENTRIES[entry](1.5)


def test_div_is_exact():
    assert scalars.div(1, 2) == Fraction(1, 2)
    assert type(scalars.div(Fraction(3, 2), Fraction(1, 2))) is int
    assert scalars.div(2, RatFunc([1, 1])) == RatFunc([2], [1, 1])


def test_strict_ops_same_tag():
    assert RatFunc([1, 1]) * RatFunc([1, -1]) == RatFunc([1, 0, -1])
    assert 5 - 2 == 3
    assert -Q == RatFunc([0, -1])


def test_render_forms():
    assert render(Fraction(5, 6)) == "5/6"
    assert render(7) == "7"
    assert render(Fraction(-3, 2)) == "-3/2"
    assert render(RatFunc([1, 1])) == "1 + q"
    assert render(RatFunc([1, 1, 2, 1, 1])) == "1 + q + 2*q^2 + q^3 + q^4"
    assert render(RatFunc([1, -2, 1])) == "1 - 2*q + q^2"
    assert render(RatFunc.zero()) == "0"
    assert render(RatFunc([0, 1], [1, 1])) == "(q)/(1 + q)"


def test_parse_rational():
    assert scalars.parse_rational("7") == 7
    assert scalars.parse_rational("-3/2") == Fraction(-3, 2)
    assert scalars.parse_rational("6/3") == 2
    with pytest.raises(ValueError):
        scalars.parse_rational("1/0")
    with pytest.raises(ValueError):
        scalars.parse_rational("q")
    assert scalars.parse_rational("3/-6") == Fraction(-1, 2)
    assert scalars.parse_rational("-4/-2") == 2


@pytest.mark.parametrize("text", [" 7", "7\n", "+7", "1_0", "2/+3", "\u0664",
                                  "1/\u0662", "7.0", "1/2/3", "--1", ""])
def test_parse_rational_takes_ascii_digits_only(text):
    with pytest.raises(ValueError):
        scalars.parse_rational(text)


# the pattern parse_rational states, as the oracle of its str-method matcher
_RATIONAL_PATTERN = re.compile(r"(-?[0-9]+)(?:/(-?[0-9]+))?")
_rational_text = st.one_of(
    st.text(max_size=8),
    st.text(alphabet="-+0123456789/ \n\u0664\u00b2\uff11", max_size=8),
    st.from_regex(_RATIONAL_PATTERN, fullmatch=True))


def _check_rational(text):
    match = _RATIONAL_PATTERN.fullmatch(text)
    assert scalars._is_integer(text) is bool(
        match and match.group(2) is None), text
    if match is None:
        with pytest.raises(ValueError, match="not a rational"):
            scalars.parse_rational(text)
    elif match.group(2) is not None and int(match.group(2)) == 0:
        with pytest.raises(ValueError, match="zero denominator"):
            scalars.parse_rational(text)
    else:
        num, den = match.group(1), match.group(2) or "1"
        value = scalars.parse_rational(text)
        assert value == Fraction(int(num), int(den)), text
        assert type(value) is (int if value.denominator == 1 else Fraction)


@pytest.mark.parametrize("text", [
    "\u0664", "\u00b2", "\uff11", "+5", "-", "--5", " 5", "5\n", "1/", "/1",
    "1//2", "1/2/3", "-0/-7", "007/010", "1/-", "\u00b2/1"])
def test_rational_matcher_on_pinned_tokens(text):
    _check_rational(text)


@given(_rational_text)
@settings(max_examples=400, deadline=None)
def test_rational_matcher_accepts_what_its_pattern_matches(text):
    _check_rational(text)


def test_monic_denominator():
    f = RatFunc([1], [2, 4])  # 1/(2 + 4q) -> (1/4)/(1/2 + q)
    assert f.den[-1] == 1
    assert f * RatFunc([2, 4]) == RatFunc.one()


# small integers, Fractions and a few 10^12-sized integers, so that content
# extraction and the gcd path of the canonical form both run
_coeffs = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.builds(Fraction, st.integers(min_value=-9, max_value=9),
              st.integers(min_value=1, max_value=6)),
    st.sampled_from([10**12, -10**12 + 7, 999_999_999_989]))
_nonzero_coeffs = _coeffs.filter(bool)
_polys = st.lists(_coeffs, min_size=0, max_size=5)
# may end in zeros, which the constructor trims
_nonzero_polys = _polys.filter(lambda c: any(c))
# degree 1 or 2, leading coefficient any nonzero draw: possibly non-monic,
# negative or a Fraction
_factors = st.tuples(st.lists(_coeffs, min_size=1, max_size=2),
                     _nonzero_coeffs).map(lambda t: t[0] + [t[1]])


def _ratfuncs():
    return st.builds(RatFunc, _polys, _nonzero_polys)


@given(_ratfuncs(), _ratfuncs())
@settings(max_examples=100, deadline=None)
def test_canonical_uniqueness(a, b):
    # a - b is zero exactly when the canonical forms coincide
    assert ((a - b) == RatFunc.zero()) == ((a.num, a.den) == (b.num, b.den))
    assert (a == b) == ((a.num, a.den) == (b.num, b.den))


@given(_ratfuncs(), _ratfuncs(),
       st.fractions(min_value=-3, max_value=3, max_denominator=4))
@settings(max_examples=100, deadline=None)
def test_substitution_homomorphism(f, g, q0):
    try:
        lhs = eval_ratfunc(f * g, q0)
        rhs_f = eval_ratfunc(f, q0)
        rhs_g = eval_ratfunc(g, q0)
    except PoleAtPoint:
        return
    assert lhs == scalars.normalize(Fraction(rhs_f) * Fraction(rhs_g))


@given(_ratfuncs(), _ratfuncs(), _ratfuncs())
@settings(max_examples=60, deadline=None)
def test_field_axioms_sample(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)


@given(_ratfuncs())
@settings(max_examples=60, deadline=None)
def test_multiplicative_inverse(a):
    if a == RatFunc.zero():
        return
    assert a * (RatFunc.one() / a) == RatFunc.one()


def _times(a, g):
    return (RatFunc(a) * RatFunc(g)).num


@given(_polys, _nonzero_polys, _factors)
@settings(max_examples=60, deadline=None)
def test_common_factor_cancels(a, b, g):
    f, h = RatFunc(_times(a, g), _times(b, g)), RatFunc(a, b)
    assert (f.num, f.den) == (h.num, h.den)


@given(st.integers(min_value=0, max_value=12), st.data())
@settings(max_examples=20, deadline=None)
def test_symbolic_binomial_is_polynomial(n, data):
    # q-factorial quotients divide exactly over Z
    k = data.draw(st.integers(min_value=0, max_value=n))
    f = psi_binomial(gauss(), n, k)
    assert f.den == (1,)
    assert f == gauss_binomial(n, k, Q)


@given(_polys, _nonzero_coeffs)
@settings(max_examples=40, deadline=None)
def test_constant_denominator(a, c):
    f = RatFunc(a, [c])
    assert f.den == (1,)
    assert f == RatFunc([Fraction(x) / c for x in a])


@given(_polys, _nonzero_polys)
@settings(max_examples=40, deadline=None)
def test_negative_leading_denominator(a, b):
    if [x for x in b if x][-1] > 0:
        b = [-x for x in b]
    f = RatFunc(a, b)
    assert f.den[-1] == 1
    assert f == RatFunc([-x for x in a], [-x for x in b])


def _sympy_canonical(sympy, num, den):
    """Canonical (num, den) from sympy.cancel, denominator made monic."""
    q = sympy.Symbol("q")

    def expr(coeffs):
        return sum(sympy.Rational(c.numerator, c.denominator) * q**i
                   for i, c in enumerate(coeffs))

    def fraction(c):
        return Fraction(int(c.p), int(c.q))

    top, bottom = sympy.fraction(sympy.cancel(expr(num) / expr(den)))
    top, bottom = sympy.Poly(top, q), sympy.Poly(bottom, q)
    lead = fraction(bottom.LC())

    def coeffs(p):
        out = [scalars.normalize(fraction(c) / lead)
               for c in reversed(p.all_coeffs())]
        while out and not out[-1]:
            out.pop()
        return tuple(out)

    return coeffs(top), coeffs(bottom)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_canonical_form_matches_sympy_cancel(seed):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(seed)

    def coeff():
        kind = rng.random()
        if kind < 0.5:
            return rng.randint(-5, 5)
        if kind < 0.85:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 12))
        return rng.randint(-10**12, 10**12)

    def poly(lo, hi):
        while True:
            p = [coeff() for _ in range(rng.randint(lo, hi))]
            if not p or p[-1]:
                return p

    for _ in range(40):
        num, den = poly(0, 4), poly(1, 4)
        if rng.random() < 0.6:
            g = poly(2, 3)
            num, den = _times(num, g), _times(den, g)
        f = RatFunc(num, den)
        assert (f.num, f.den) == _sympy_canonical(sympy, num, den)


# The polynomial kernels against naive references.  repr compares the
# coefficient types too, so an integral Fraction left unnormalized fails.

def _naive_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ratfunc._trim(out)


def _naive_pow(a, n):
    out = (1,)
    for _ in range(n):
        out = _naive_mul(out, a)
    return out


def _naive_add(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for p in (a, b):
        for i, x in enumerate(p):
            out[i] += x
    return ratfunc._trim(out)


def _naive_exquo(a, b):
    """Long division over Q; a quotient only if it is exact and integral
    (the zero polynomial, shorter than any divisor, gives None)."""
    if len(a) < len(b):
        return None
    rem = [Fraction(x) for x in a]
    quot = [Fraction(0)] * (len(a) - len(b) + 1)
    for shift in reversed(range(len(quot))):
        quot[shift] = rem[shift + len(b) - 1] / b[-1]
        for i, y in enumerate(b):
            rem[shift + i] -= quot[shift] * y
    if any(rem) or any(c.denominator != 1 for c in quot):
        return None
    return tuple(int(c) for c in quot)


_kernel_polys = st.one_of(
    _polys.map(ratfunc._trim),
    # monomials c q^d, often longer than the other factor
    st.tuples(st.integers(min_value=0, max_value=40), _nonzero_coeffs).map(
        lambda t: (0,) * t[0] + (scalars.normalize(t[1]),)),
    # dense factors padded with zeros at the bottom, as a twist leaves them
    st.tuples(st.integers(min_value=1, max_value=40),
              _polys.map(ratfunc._trim).filter(bool)).map(
        lambda t: (0,) * t[0] + t[1]),
    st.just(()))


@given(_kernel_polys, _kernel_polys)
@settings(max_examples=300, deadline=None)
def test_pmul_matches_naive_product(a, b):
    assert repr(ratfunc._pmul(a, b)) == repr(_naive_mul(a, b))
    assert repr(ratfunc._pmul(b, a)) == repr(_naive_mul(a, b))


def test_pmul_by_a_long_monomial_is_a_shift():
    # q^d times p is p shifted, whichever factor is the longer: no loop
    # over the monomial's d zeros
    p = tuple(range(1, 201))
    shift = (0,) * 200_000 + (1,)
    for a, b in ((shift, p), (p, shift)):
        start = time.perf_counter()
        out = ratfunc._pmul(a, b)
        assert time.perf_counter() - start < 0.5
        assert out == (0,) * 200_000 + p


@given(_kernel_polys, st.integers(min_value=0, max_value=5))
@settings(max_examples=200, deadline=None)
def test_ppow_matches_naive_power(a, n):
    assert repr(ratfunc._ppow(a, n)) == repr(_naive_pow(a, n))


_MIXED_CONSTANTS = (0, 1, -1, 7, Fraction(2, 1), Fraction(-3, 5))
# constants included, so that f == c is sometimes true
_mixed_ratfuncs = st.one_of(
    _ratfuncs(), st.sampled_from(_MIXED_CONSTANTS).map(RatFunc.constant))


def _form(f):
    assert type(f) is RatFunc
    return repr((f.num, f.den))


@given(_mixed_ratfuncs, st.sampled_from(_MIXED_CONSTANTS))
@settings(max_examples=200, deadline=None)
def test_mixed_operands_match_the_lifted_route(f, c):
    # an int or Fraction operand gives the canonical form of its constant
    # function, with no RatFunc built for it
    lifted = RatFunc.constant(c)
    assert _form(f + c) == _form(f + lifted)
    assert _form(c + f) == _form(lifted + f)
    assert _form(f - c) == _form(f - lifted)
    assert _form(c - f) == _form(lifted - f)
    assert _form(f * c) == _form(f * lifted)
    assert _form(c * f) == _form(lifted * f)
    assert (f == c) == (c == f) == (f == lifted)
    if f == c:
        assert hash(f) == hash(c)


# The Gauss integer [m]_q, all ones, takes the window-sum path of _pmul
# and the general long division of _pexquo; its co-factors are int
# (negative too), Fraction, 10^12-sized, monomial or zero.
_gauss_integers = st.integers(min_value=2, max_value=12).map(
    lambda m: (1,) * m)
_int_polys = st.lists(st.integers(min_value=-10**12, max_value=10**12),
                      max_size=8).map(ratfunc._trim)


@given(_gauss_integers, _kernel_polys)
@settings(max_examples=300, deadline=None)
def test_pmul_by_gauss_integer_matches_naive_product(ones, b):
    assert repr(ratfunc._pmul(ones, b)) == repr(_naive_mul(ones, b))
    assert repr(ratfunc._pmul(b, ones)) == repr(_naive_mul(ones, b))


@given(_gauss_integers, st.one_of(_kernel_polys, _int_polys), st.data())
@settings(max_examples=300, deadline=None)
def test_pexquo_by_gauss_integer_matches_naive_division(ones, c, data):
    a = _naive_mul(ones, c)
    quot = ratfunc._pexquo(a, ones)
    assert repr(quot) == repr(_naive_exquo(a, ones))
    if a and all(type(x) is int for x in c):
        assert quot == c
    if not a:
        return
    # a multiple with one coefficient changed is no multiple: q^i does
    # not vanish at the roots of unity where [m]_q does
    i = data.draw(st.integers(min_value=0, max_value=len(a) - 1))
    changed = list(a)
    changed[i] += data.draw(_nonzero_coeffs)
    changed = ratfunc._trim(changed)
    assert ratfunc._pexquo(changed, ones) is None
    assert _naive_exquo(changed, ones) is None


def test_q_binomial_steps_walk_the_gauss_diagonal():
    # each step multiplies by 1 - q^(d+j) and divides by 1 - q^j
    for d in range(16):
        for i in range(15):
            start = gauss_binomial(d + i, i, Q)
            for k in range(i + 1, 16):
                steps = range(i + 1, k + 1)
                assert (ratfunc.q_binomial_steps(start, d, steps)
                        == gauss_binomial(d + k, k, Q)), (d, i, k)


@given(_int_polys, _int_polys.filter(bool), st.data())
@settings(max_examples=200, deadline=None)
def test_pexquo_matches_naive_division(c, b, data):
    a = _naive_mul(b, c)
    assert repr(ratfunc._pexquo(a, b)) == repr(_naive_exquo(a, b))
    if a:
        changed = list(a)
        changed[data.draw(st.integers(0, len(a) - 1))] += data.draw(
            st.integers(min_value=-3, max_value=3))
        changed = ratfunc._trim(changed)
        assert repr(ratfunc._pexquo(changed, b)) == repr(
            _naive_exquo(changed, b))


@given(st.one_of(_kernel_polys, _gauss_integers),
       st.one_of(_kernel_polys, _gauss_integers))
@settings(max_examples=300, deadline=None)
def test_padd_matches_naive_sum(a, b):
    assert repr(ratfunc._padd(a, b)) == repr(_naive_add(a, b))
    assert repr(ratfunc._padd(b, a)) == repr(_naive_add(a, b))
    # b - a added to a cancels the top of a when b is shorter
    diff = _naive_add(b, ratfunc._pneg(a))
    assert repr(ratfunc._padd(a, diff)) == repr(_naive_add(a, diff))
    # RatFunc subtraction, and a difference whose top cancels
    for left, right, want in ((b, a, diff), (a, b, ratfunc._pneg(diff)),
                              (a, ratfunc._pneg(diff), b)):
        value = RatFunc(left) - RatFunc(right)
        assert (repr(value.num), value.den) == (repr(want), (1,))


# RatFunc / RatFunc of two polynomials tries _pexquo on the raw operands
# before the canonical form; both must give the canonical form, and the
# cross product must hold by the naive product.

def _check_quotient(num, den):
    f, g = RatFunc(num), RatFunc(den)
    quotient = f / g
    assert _form(quotient) == _form(ratfunc._canonical_fraction(f.num, g.num))
    assert repr(_naive_mul(quotient.num, g.num)) == repr(
        _naive_mul(f.num, quotient.den))


@given(st.one_of(_kernel_polys, _int_polys, _gauss_integers),
       st.one_of(_kernel_polys, _int_polys, _gauss_integers).filter(bool),
       st.data())
@settings(max_examples=300, deadline=None)
def test_polynomial_quotient_matches_canonical_form(c, b, data):
    a = _naive_mul(b, c)
    _check_quotient(a, b)
    if a:
        # a multiple with one coefficient changed is no multiple
        changed = list(a)
        changed[data.draw(st.integers(0, len(a) - 1))] += data.draw(
            _nonzero_coeffs)
        _check_quotient(ratfunc._trim(changed), b)


_divisors = st.one_of(_nonzero_coeffs, st.integers(-10**12, 10**12).filter(
    bool))


@given(st.one_of(_ratfuncs(), st.builds(RatFunc, _polys, _factors)),
       _divisors)
@settings(max_examples=200, deadline=None)
def test_division_by_a_constant_matches_the_lifted_route(f, c):
    # num/c over the same monic den, with no RatFunc built for c
    assert _form(f / c) == _form(f / RatFunc.constant(c))
    assert _form(f / c) == _form(ratfunc._canonical_fraction(
        f.num, _naive_mul(f.den, (c,))))


@pytest.mark.parametrize("zero", [0, Fraction(0)])
def test_division_by_a_zero_constant(zero):
    with pytest.raises(DivisionByZero,
                       match="^division by the zero rational function$"):
        RatFunc([1, 1], [0, 1]) / zero


@given(st.one_of(_kernel_polys, _gauss_integers),
       st.one_of(_kernel_polys, _gauss_integers),
       st.integers(min_value=0, max_value=45))
@settings(max_examples=300, deadline=None)
def test_pshift_add_matches_naive_sum(a, b, e):
    shifted = (0,) * e + b if b else b
    assert repr(ratfunc._pshift_add(a, b, e)) == repr(_naive_add(a, shifted))
    # a shifted tail that cancels the top of a leaves the bottom trimmed
    top = ratfunc._pneg(a[e:])
    assert repr(ratfunc._pshift_add(a, top, e)) == repr(
        ratfunc._trim(list(a[:e])))


def _ratfunc_terms():
    polys = st.one_of(_kernel_polys, _gauss_integers).map(
        lambda num: RatFunc(num))
    return st.lists(st.tuples(st.sampled_from("abc"),
                              st.integers(min_value=0, max_value=12),
                              polys, polys), max_size=8)


@given(_ratfunc_terms())
@settings(max_examples=200, deadline=None)
def test_shifted_product_sums_match_the_fold(terms):
    folded = {}
    for key, e, a, b in terms:
        folded[key] = folded.get(key, RatFunc.zero()) + a * b * Q ** e
    sums = ratfunc.shifted_product_sums(terms)
    assert {key: _form(v) for key, v in sums.items()} == {
        key: _form(v) for key, v in folded.items()}


@pytest.mark.parametrize("odd", [2, Fraction(1, 2), RatFunc([1], [1, 1])],
                         ids=repr)
def test_shifted_product_sums_refuse_a_non_polynomial(odd):
    terms = [("a", 1, Q, Q), ("a", 0, Q, odd)]
    assert ratfunc.shifted_product_sums(terms) is None
    assert ratfunc.shifted_product_sums(terms[::-1]) is None


# Twisted sums at q: the packed route of shifted_product_sum against the
# fold of RatFunc operators, at and across the 64-bit bound of its slots.

def _product_fold(terms):
    total = RatFunc.zero()
    for e, a, b in terms:
        total = total + a * b * Q ** e
    return total


def _slot_bound(terms):
    return sum(max(a.num) * max(b.num) * min(len(a.num), len(b.num))
               for _, a, b in terms if a and b)


_nonnegative_ratfuncs = st.lists(
    st.one_of(st.integers(min_value=0, max_value=9),
              st.integers(min_value=0, max_value=2 ** 34)),
    max_size=12).map(RatFunc)


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=20),
                          _nonnegative_ratfuncs, _nonnegative_ratfuncs),
                max_size=8))
@settings(max_examples=200, deadline=None)
def test_shifted_product_sum_matches_the_fold(terms):
    want = _form(_product_fold(terms))
    # the first sum packs every factor, the second reads the packings
    assert _form(ratfunc.shifted_product_sum(terms)) == want
    assert _form(ratfunc.shifted_product_sum(terms)) == want


_TWO32 = 2 ** 32


_ONE = RatFunc.one()


@pytest.mark.parametrize("terms, bound, top, width", [
    ([(0, RatFunc([_TWO32 + 1]), RatFunc([_TWO32 - 1]))],
     2 ** 64 - 1, 2 ** 64 - 1, None),
    ([(1, _ONE, RatFunc([2 ** 63])), (1, RatFunc([2 ** 63 - 1]), _ONE)],
     2 ** 64 - 1, 2 ** 64 - 1, None),
    ([(0, RatFunc([_TWO32]), RatFunc([_TWO32]))], 2 ** 64, 2 ** 64, 9),
    ([(3, RatFunc([_TWO32, _TWO32]), RatFunc([2 ** 31, 2 ** 31]))],
     2 ** 64, 2 ** 64, 9),
    ([(1, _ONE, RatFunc([2 ** 63])), (1, RatFunc([2 ** 63]), _ONE)],
     2 ** 64, 2 ** 64, 9),
    ([(1, RatFunc([2 ** 70, 0, 1]), RatFunc([1, 1]))], 2 ** 71, 2 ** 70, 9),
    ([(0, RatFunc([2 ** 64, 3]), RatFunc([2 ** 64, 1, 1]))],
     2 ** 129, 2 ** 128, 17),
], ids=["one-product-2^64-1", "two-terms-2^64-1", "one-product-2^64",
        "two-slots-2^64", "two-terms-2^64", "a-coefficient-2^70",
        "a-coefficient-2^64"])
def test_shifted_product_sum_at_the_64_bit_edge(terms, bound, top, width,
                                                monkeypatch):
    # below a bound of 2^64 the cached 64-bit packings serve and nothing
    # is packed again; from 2^64 on every factor is packed per sum in the
    # fewest whole bytes that hold the bound
    assert _slot_bound(terms) == bound
    for _, a, b in terms:
        ratfunc._packing(a), ratfunc._packing(b)
    widths = []
    pack = ratfunc._pack
    monkeypatch.setattr(ratfunc, "_pack",
                        lambda num, w: widths.append(w) or pack(num, w))
    value = ratfunc.shifted_product_sum(terms)
    assert _form(value) == _form(_product_fold(terms))
    assert max(value.num) == top
    assert set(widths) == ({width} if width else set())


def test_an_entry_serves_narrow_and_wide_sums():
    # the same entries, packed first for a sum under the bound and then
    # summed over it, and the reverse
    for wide_first in (False, True):
        a, b = RatFunc([2 ** 31, 3]), RatFunc([2 ** 31, 1])
        narrow = [(2, a, RatFunc([1, 1])), (0, b, b)]
        wide = [(0, a, b), (1, b, a)]
        assert _slot_bound(narrow) < 2 ** 64 <= _slot_bound(wide)
        for terms in (wide, narrow) if wide_first else (narrow, wide):
            assert _form(ratfunc.shifted_product_sum(terms)) == _form(
                _product_fold(terms))


def test_shifted_product_sum_of_zero_terms_is_the_zero_ratfunc():
    zero = RatFunc.zero()
    for terms in ([], [(3, zero, Q)],
                  [(0, Q, zero), (2, zero, zero), (1, zero, Q)]):
        value = ratfunc.shifted_product_sum(terms)
        assert _form(value) == _form(zero)
    # a zero factor adds nothing to the sum of the other terms
    value = ratfunc.shifted_product_sum([(0, Q, Q), (9, zero, Q)])
    assert _form(value) == _form(Q * Q)


def test_packed_ratfunc_survives_copy_and_pickle():
    for num in ([1, 2, 3], [2 ** 64, 1], [0, 0, 7]):
        f = RatFunc(num)
        hash(f), ratfunc._packing(f)
        for g in (copy.copy(f), copy.deepcopy(f),
                  pickle.loads(pickle.dumps(f))):
            fresh = RatFunc(num)
            assert g == f == fresh and hash(g) == hash(fresh)
            assert {fresh: "x"}[g] == "x" and {g: "x"}[fresh] == "x"
            assert ratfunc._packing(g) == ratfunc._packing(fresh)
            sums = [ratfunc.shifted_product_sum([(1, h, Q), (0, h, h)])
                    for h in (g, fresh)]
            assert sums[0] == sums[1] and type(sums[0]) is RatFunc


def test_ratfunc_hash_matches_equal_values_across_arithmetic():
    assert {Q: 1}[RatFunc([0, 1])] == 1
    assert {RatFunc([0, 1]): 1}[Q] == 1
    for c in (3, 0, -7, Fraction(2, 3)):
        constant = RatFunc.constant(c)
        assert hash(constant) == hash(c)
        assert {c: "x"}[constant] == "x" and {constant: "x"}[c] == "x"
    f = RatFunc([1, 2], [3, 0, 1])
    before = hash(f), hash(Q)
    # arithmetic builds new objects and leaves the operands' hashes alone
    g = (f * Q + f) / (Q + 1) - f
    assert (hash(f), hash(Q)) == before
    assert hash(g) == hash(RatFunc(g.num, g.den))
    assert hash(Q + 1 - 1) == hash(Q)
    assert hash(Q - Q) == hash(0) and hash(Q / Q) == hash(1)


def test_scalars_names_the_field_of_ratfunc():
    # callers that read Q and RatFunc off scalars, as the bench does, get
    # the objects of psifoc.ratfunc; no other name resolves there
    assert scalars.Q is ratfunc.Q and scalars.RatFunc is ratfunc.RatFunc
    with pytest.raises(AttributeError, match="has no attribute 'q_integer'"):
        scalars.q_integer


_FOREIGN = object()


@pytest.mark.parametrize("op, value", [
    (operator.matmul, ScalarMatrix([[1]])),
    (operator.add, ScalarMatrix([[1]])),
    (operator.sub, ScalarMatrix([[1]])),
    (operator.eq, ScalarMatrix([[1]])),
    (operator.add, DiagOperator((1, 2))),
    (operator.mul, DiagOperator((1, 2))),
    (operator.pow, DiagOperator((1, 2))),
    (operator.add, QPlanePoly.x(2)),
    (operator.mul, QPlanePoly.x(2)),
    (operator.pow, QPlanePoly.x(2)),
    (operator.eq, QPlanePoly.x(2)),
    (operator.matmul, MonomialMap(((0, 1), None))),
    (operator.add, Q),
    (operator.sub, Q),
    (operator.mul, Q),
    (operator.truediv, Q),
    (operator.pow, Q),
    (operator.eq, Q),
], ids=lambda x: getattr(x, "__name__", type(x).__name__))
def test_binary_operators_decline_a_foreign_operand(op, value):
    # each overload returns NotImplemented on either side, so Python
    # raises TypeError, or == falls back to identity
    for left, right in ((value, _FOREIGN), (_FOREIGN, value)):
        if op is operator.eq:
            assert op(left, right) is False
        else:
            with pytest.raises(TypeError):
                op(left, right)
