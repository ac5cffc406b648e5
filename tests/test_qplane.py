"""Quantum-plane arithmetic and the identity verifiers."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from psifoc import psi, qhat, qplane
from psifoc.errors import DeformationMismatch, NonInvertibleDenominator
from psifoc.psi import classical, fibonacci, gauss, gauss_binomial
from psifoc.qplane import (QPlanePoly, explore_observation1_general,
                           realization, realization_check,
                           verify_cauchy_operator, verify_cauchy_scalar,
                           verify_fermat_operator,
                           verify_gauss_binomial_theorem)
from psifoc.scalars import Q, RatFunc, normalize


def test_defining_relation():
    product = QPlanePoly.y(Q) * QPlanePoly.x(Q)
    assert product.coefficient(1, 1) == Q
    assert len(product.coeffs) == 1


def test_commutative_at_one():
    a = QPlanePoly(1, {(1, 0): 2, (0, 1): 3})
    b = QPlanePoly(1, {(1, 1): 1, (0, 0): 5})
    product = a * b
    # same as the ordinary expansion
    assert product.coefficient(2, 1) == 2
    assert product.coefficient(1, 2) == 3
    assert product.coefficient(1, 0) == 10
    assert product.coefficient(0, 1) == 15


def test_square_of_x_plus_y():
    square = QPlanePoly.x_plus_y(Q) ** 2
    assert square.coefficient(2, 0) == 1
    assert square.coefficient(1, 1) == RatFunc([1, 1])
    assert square.coefficient(0, 2) == 1


def test_power_zero_and_cube():
    assert QPlanePoly.x_plus_y(Q) ** 0 == QPlanePoly.one(Q)
    cube = QPlanePoly.x_plus_y(Q) ** 3
    assert cube.coefficient(1, 2) == RatFunc([1, 1, 1])
    assert cube.coefficient(1, 2) == gauss_binomial(3, 1, Q)


def test_deformation_mismatch():
    with pytest.raises(DeformationMismatch):
        QPlanePoly.x(Q) * QPlanePoly.y(1)
    with pytest.raises(DeformationMismatch):
        QPlanePoly.x(Fraction(2)) + QPlanePoly.y(Fraction(3))


def test_binomial_theorem_report():
    report = verify_gauss_binomial_theorem(12)
    assert report.passed
    assert report.params["n_max"] == 12
    single = verify_gauss_binomial_theorem(1)
    assert single.passed


def test_binomial_theorem_specializes_at_one():
    row = QPlanePoly.x_plus_y(1) ** 4
    assert [row.coefficient(k, 4 - k) for k in range(5)] == [1, 4, 6, 4, 1]


def test_cauchy_scalar_small_cases():
    assert verify_cauchy_scalar(1, 1, 1, Q)
    assert verify_cauchy_scalar(2, 1, 1, Q)
    # hand expansion of r=2, s=1, j=1: t^2 + (1 + t) = 1 + t + t^2
    lhs = Q ** 2 + RatFunc([1, 1])
    assert lhs == gauss_binomial(3, 1, Q)


def test_cauchy_scalar_classical_sweep():
    for r in range(7):
        for s in range(7):
            for j in range(r + s + 2):
                assert verify_cauchy_scalar(r, s, j, 1)


def test_cauchy_scalar_symbolic_sweep():
    for r in range(11):
        for s in range(11 - r):
            for j in range(r + s + 1):
                assert verify_cauchy_scalar(r, s, j, Q), (r, s, j)


def test_cauchy_scalar_beyond_range():
    assert verify_cauchy_scalar(2, 2, 9, Q)  # both sides zero


def test_cauchy_operator_fibonacci():
    report = verify_cauchy_operator(fibonacci(), 2, 2, 2, 8)
    assert report.passed
    assert report.params["maxdeg"] == 8


def test_cauchy_operator_matches_scalar_reduction():
    # the operator verdict at degree m must equal the scalar identity at
    # the mutator eigenvalue of degree m
    for fam in (classical(), fibonacci(), gauss(Fraction(2))):
        op = qhat.qhat_operator(fam, 6)
        for (r, s, j) in ((2, 2, 2), (3, 1, 2), (4, 3, 5), (1, 0, 1)):
            report = verify_cauchy_operator(fam, r, s, j, 6)
            scalar_verdicts = [
                verify_cauchy_scalar(r, s, j, qhat.eval_on_monomial(op, m))
                for m in range(7)]
            assert report.passed == all(scalar_verdicts)
            failing = {entry["degree"] for entry in report.mismatches}
            assert failing == {m for m, ok in enumerate(scalar_verdicts)
                               if not ok}


def test_cauchy_operator_gauss_symbolic():
    report = verify_cauchy_operator(gauss(), 3, 4, 5, 4)
    assert report.passed


def test_cauchy_operator_propagates_degenerate_eigenvalue():
    fam = psi.custom([1, 2, -1, 1])  # eigenvalue -1 at degree 2
    with pytest.raises(NonInvertibleDenominator) as err:
        verify_cauchy_operator(fam, 3, 2, 2, 2)
    assert err.value.degree == 2


def test_realization_relation():
    for q0 in (Q, 1, 2, -1, Fraction(3, 7)):
        assert realization_check(q0, 8), q0


def test_realization_action():
    # B A on x^a y^b picks up q0^(a+1) while A B picks up q0^a
    real = realization(Fraction(2), 4)
    col = real.index(1, 1)
    ba = real.b @ real.a
    ab = real.a @ real.b
    target = real.index(2, 2)
    assert ba.entry(target, col) == 4
    assert ab.entry(target, col) == 2


def test_observation1_matches_for_constant_eigenvalues():
    for n in range(11):
        assert explore_observation1_general(gauss(), n).passed
        assert explore_observation1_general(classical(), n).passed


def test_observation1_fibonacci_mismatch_table():
    report = explore_observation1_general(fibonacci(), 3)
    assert not report.passed
    assert report.mismatches == [
        {"monomial": "x^2*y^1", "lhs": "1", "rhs": "3"}]


def test_report_json_shape():
    report = explore_observation1_general(fibonacci(), 3)
    import json
    payload = json.loads(report.to_json())
    assert payload["verdict"] == "fail"
    assert payload["params"]["family"] == "fib"
    assert payload["mismatches"][0]["monomial"] == "x^2*y^1"


_exponents = st.tuples(st.integers(min_value=0, max_value=6),
                       st.integers(min_value=0, max_value=6))
_coeffs = st.integers(min_value=-3, max_value=3)


def _qplane_polys():
    return st.dictionaries(_exponents, _coeffs, min_size=0, max_size=6).map(
        lambda coeffs: QPlanePoly(Q, coeffs))


@given(_qplane_polys(), _qplane_polys(), _qplane_polys())
@settings(max_examples=60, deadline=None)
def test_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(_qplane_polys(), _qplane_polys(), _qplane_polys())
@settings(max_examples=40, deadline=None)
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(st.integers(min_value=0, max_value=8))
@settings(max_examples=20, deadline=None)
def test_power_coefficients_are_gauss_binomials(n):
    power = QPlanePoly.x_plus_y(Q) ** n
    for k in range(n + 1):
        assert power.coefficient(k, n - k) == gauss_binomial(n, k, Q)


def test_fermat_operator_rows_per_degree(monkeypatch):
    # Fibonacci mutator eigenvalues at degrees 0..3 are 0, 0, 1, 1
    def fake(size, mode):
        return [(0, 1, Fraction(1, 2), 3)] if mode.t == 1 else []

    monkeypatch.setattr(qplane, "fermat_factorization_mismatches", fake)
    report = verify_fermat_operator(fibonacci(), 2, 3)
    assert report.params == {"check": "fermat-factorization", "family": "fib",
                             "size": 2, "maxdeg": 3}
    assert report.mismatches == [
        {"degree": m, "entry": [0, 1], "lhs": "1/2", "rhs": "3"}
        for m in (2, 3)]


def test_fermat_operator_refuses_negative_maxdeg():
    with pytest.raises(ValueError, match="nonnegative"):
        verify_fermat_operator(classical(), 3, -1)


def test_fermat_operator_propagates_degenerate_eigenvalue():
    fam = psi.custom([1, 2, -1, 1])  # eigenvalue -1 at degree 2
    with pytest.raises(NonInvertibleDenominator) as err:
        verify_fermat_operator(fam, 3, 3)
    assert err.value.degree == 2


def test_fermat_operator_factorizes_once_per_eigenvalue(monkeypatch):
    calls = []
    real = qplane.fermat_factorization_mismatches

    def counted(size, mode):
        calls.append(mode.t)
        return real(size, mode)

    monkeypatch.setattr(qplane, "fermat_factorization_mismatches", counted)
    assert verify_fermat_operator(classical(), 4, 32).passed
    assert calls == [1]


def _naive_product(a, b):
    """Every term pair with its own t^(l1*k2), each sum started at 0."""
    acc = {}
    for (k1, l1), c1 in a.coeffs.items():
        for (k2, l2), c2 in b.coeffs.items():
            key = (k1 + k2, l1 + l2)
            acc[key] = acc.get(key, 0) + c1 * c2 * a.t ** (l1 * k2)
    return sorted((key, repr(normalize(value)))
                  for key, value in acc.items() if value != 0)


_TWISTS = (3, Fraction(-2, 5), Q)


@st.composite
def _twisted_pairs(draw):
    # small exponents and coefficients that are powers of t, so that terms
    # meet on one monomial and often cancel
    t = draw(st.sampled_from(_TWISTS))
    coeffs = st.builds(lambda c, e: c * t ** e,
                       st.sampled_from((1, -1, 2, Fraction(1, 2))),
                       st.integers(min_value=0, max_value=2))
    exponents = st.tuples(st.integers(0, 2), st.integers(0, 2))
    return tuple(QPlanePoly(t, draw(st.dictionaries(exponents, coeffs,
                                                    max_size=5)))
                 for _ in range(2))


@given(_twisted_pairs())
@settings(max_examples=200, deadline=None)
def test_product_matches_the_naive_double_sum(pair):
    a, b = pair
    assert sorted((key, repr(value)) for key, value in
                  (a * b).coeffs.items()) == _naive_product(a, b)


@pytest.mark.parametrize("t", _TWISTS, ids=repr)
def test_product_prunes_cancelled_terms(t):
    # x (t y) + y (-x) = t xy - t xy: the xy term cancels and is dropped
    x_plus_y = QPlanePoly.x_plus_y(t)
    other = QPlanePoly(t, {(0, 1): t, (1, 0): -1})
    product = x_plus_y * other
    assert (1, 1) not in product.coeffs
    assert sorted((key, repr(value)) for key, value in
                  product.coeffs.items()) == _naive_product(x_plus_y, other)
    assert product.coefficient(0, 2) == t and product.coefficient(2, 0) == -1
