"""Quantum-plane arithmetic and the identity verifiers."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from psifoc import matrices, psi, qhat, qplane
from psifoc.errors import DeformationMismatch, NonInvertibleDenominator
from psifoc.matrices import ScalarMatrix
from psifoc.psi import classical, fibonacci, gauss, gauss_binomial
from psifoc.qplane import (QPlanePoly, Report, explore_observation1_general,
                           realization, realization_check,
                           verify_cauchy_operator, verify_cauchy_scalar,
                           verify_fermat_operator,
                           verify_gauss_binomial_theorem)
from psifoc.ratfunc import Q, RatFunc
from psifoc.scalars import normalize, render


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


def test_binomial_theorem_multiplies_each_power_once_per_parameter(
        monkeypatch, cold_tables):
    # (x + y)^0 is one, so the powers up to n take n products, made once:
    # a repeat call reads them all, and a longer one makes only the new ones
    products = []
    real = QPlanePoly.__mul__

    def counted(self, other):
        products.append(other)
        return real(self, other)

    monkeypatch.setattr(QPlanePoly, "__mul__", counted)
    for n in (0, 1, 5):
        cold_tables()
        products.clear()
        assert verify_gauss_binomial_theorem(n).passed
        assert len(products) == n
        products.clear()
        assert verify_gauss_binomial_theorem(n).passed
        assert products == []
    assert verify_gauss_binomial_theorem(8).passed
    assert len(products) == 3


def test_stored_powers_hold_the_gaussian_rows(cold_tables, stored):
    # every coefficient of a stored power is the row entry it equals, so
    # the table keeps no second copy of the rows
    assert verify_gauss_binomial_theorem(16).passed
    powers = stored(qplane._power_step, Q)
    assert len(powers) == 17
    for n, power in enumerate(powers):
        assert sorted(power.coeffs) == [(k, n - k) for k in range(n + 1)]
        for (k, l), value in power.coeffs.items():
            assert value is gauss_binomial(n, k, Q), (n, k)


def _coefficient_rows(n_max):
    """The binomial theorem's mismatch rows, coefficient by coefficient."""
    report = Report({"check": "binomial-theorem", "n_max": n_max})
    for n in range(n_max + 1):
        power = psi._entry(qplane._power_step, Q, n)
        for k in range(n + 1):
            report.compare(power.coefficient(k, n - k),
                           gauss_binomial(n, k, Q),
                           n=n, monomial=f"x^{k}*y^{n - k}")
        for k, l in set(power.coeffs) - {(k, n - k) for k in range(n + 1)}:
            report.compare(power.coefficient(k, l), 0,
                           n=n, monomial=f"x^{k}*y^{l}")
    return report.mismatches


def _wrong_value(coeffs):
    coeffs[2, 3] = coeffs[2, 3] + 1


def _extra_key(coeffs):
    coeffs[6, 0] = Q


def _missing_key(coeffs):
    del coeffs[1, 4]


@pytest.mark.parametrize("corrupt", [
    [_wrong_value], [_extra_key], [_missing_key], [_wrong_value, _extra_key]],
    ids=["wrong-value", "extra-key", "missing-key", "wrong-and-extra"])
def test_binomial_theorem_reports_a_wrong_stored_power(corrupt, cold_tables,
                                                      stored):
    # the one comparison per power fails, and the rows are those of the
    # loop over single coefficients
    assert verify_gauss_binomial_theorem(8).passed
    coeffs = stored(qplane._power_step, Q)[5].coeffs
    for change in corrupt:
        change(coeffs)
    report = verify_gauss_binomial_theorem(8)
    assert report.mismatches == _coefficient_rows(8)
    assert len(report.mismatches) == len(corrupt)
    assert {row["n"] for row in report.mismatches} == {5}


def test_power_table_keeps_a_wrong_row(monkeypatch, cold_tables, stored):
    # the power step reads row n only to keep a coefficient equal to its
    # entry as that entry: under row 3, entry 1 off by one, every stored
    # coefficient is the product's own value, and each row entry that
    # differs from it is a mismatch row, on every call
    right = psi._row_step
    truth = [psi._entry(right, Q, n) for n in range(8)]
    cold_tables()

    def wrong(seq, t):
        row = right(seq, t)
        return row if len(seq) != 3 else (row[0], row[1] + 1, *row[2:])

    monkeypatch.setattr(qplane, "_row_step", wrong)
    report = verify_gauss_binomial_theorem(7)
    rows = stored(wrong, Q)
    differ = [(n, k) for n in range(8) for k in range(n + 1)
              if rows[n][k] != truth[n][k]]
    # rows 4 and up grow from the wrong row 3
    assert [n for n, _ in differ][:3] == [3, 4, 4] and differ[-1][0] == 7
    assert report.mismatches == [
        {"n": n, "monomial": f"x^{k}*y^{n - k}", "lhs": render(truth[n][k]),
         "rhs": render(rows[n][k])} for n, k in differ]
    for n, power in enumerate(stored(qplane._power_step, Q)):
        for k in range(n + 1):
            value = power.coeffs[k, n - k]
            assert value == truth[n][k], (n, k)
            assert (value is rows[n][k]) is ((n, k) not in differ), (n, k)
    assert verify_gauss_binomial_theorem(7).mismatches == report.mismatches


def test_binomial_theorem_reports_do_not_depend_on_call_order(cold_tables):
    cold = {}
    for n in range(13):
        cold_tables()
        cold[n] = verify_gauss_binomial_theorem(n).to_json()
    warm = {n: verify_gauss_binomial_theorem(n).to_json() for n in range(13)}
    cold_tables()
    descending = {n: verify_gauss_binomial_theorem(n).to_json()
                  for n in reversed(range(13))}
    assert cold == warm == descending
    assert all(json.loads(text)["verdict"] == "pass" for text in cold.values())


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
    # the recurrence of the sum is total, so the closed side (5, 2) refuses
    assert "binomial symbol (5 2)" in str(err.value)


def _scaled_quotient(right):
    # wrong by lam^n: a check whose two sides both read the quotient
    # scales both by lam^(r+s) and still passes
    return lambda n, k, t: right(n, k, t) * t ** n


def _recurrence_off_at_3_1(right):
    # the row step, where the sum reads the recurrence: (3, 1) off by one
    def wrong(seq, t):
        row = right(seq, t)
        return row if len(seq) != 3 else (row[0], row[1] + 1, *row[2:])
    return wrong


@pytest.mark.parametrize("module, name, mutate, failing", [
    (qplane, "binomial_eigenvalue", _scaled_quotient, [0, 1, 4, 5, 6, 7, 8]),
    (psi, "_row_step", _recurrence_off_at_3_1, range(2, 9)),
], ids=["quotient-times-lam^n", "recurrence-off-at-(3,1)"])
def test_cauchy_operator_sees_either_route_wrong(module, name, mutate,
                                                 failing, monkeypatch):
    # the sum reads the recurrence and the closed side the quotient, so a
    # mutation of either shows.  The Fibonacci eigenvalue is 0 at degrees
    # 0 and 1, where (3, 1) carries the twist 0^2, and 1 at degrees 2 and
    # 3, where lam^n is 1
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    report = verify_cauchy_operator(fibonacci(), 3, 2, 2, 8)
    assert [row["degree"] for row in report.mismatches] == list(failing)


def test_realization_relation():
    for q0 in (Q, 1, 2, -1, Fraction(3, 7)):
        assert realization_check(q0, 8), q0


def test_realization_action():
    # B A on x^a y^b picks up q0^(a+1) while A B picks up q0^a
    real = realization(Fraction(2), 4)
    col = real.index(1, 1)
    ba = (real.b @ real.a).to_matrix()
    ab = (real.a @ real.b).to_matrix()
    target = real.index(2, 2)
    assert ba.entry(target, col) == 4
    assert ab.entry(target, col) == 2


def test_graded_index_is_the_basis_position():
    for n in range(13):
        basis = qplane._graded_basis(n)
        assert [qplane._graded_index(xd, yd) for xd, yd in basis] == [
            basis.index(m) for m in basis]
        real = realization(2, max(n, 1))
        assert all(real.index(*m) == i for i, m in enumerate(basis))
    for outside in ((-1, 1), (1, -1), (3, 2)):
        with pytest.raises(ValueError):
            realization(2, 4).index(*outside)


def _is_zero(m):
    return not any(any(row) for row in m.data)


def _residual_vanishes(real, q0):
    """Whether the dense B A - q0 A B of a realization is zero."""
    constant = qhat.DiagOperator((q0,) * len(real.basis))
    return _is_zero(qhat.qhat_mutator(real.b.to_matrix(), real.a.to_matrix(),
                                      constant))


def _dense_residual_vanishes(q0, n):
    return _residual_vanishes(realization(q0, n), q0)


@pytest.mark.parametrize("q0", [Q, 0, 2, -1, Fraction(3, 7)], ids=repr)
def test_realization_check_fails_on_a_corrupted_weight(q0, monkeypatch):
    # weight a enters B A on the columns of x-degree a - 1 and q0 A B on
    # those of x-degree a, below the top two layers: every weight but the
    # last is seen, and weight 0 only if q0 is not 0
    n = 6
    dilation = qhat.dilation_operator
    for bad in range(n + 1):
        def corrupted(q, trunc):
            values = list(dilation(q, trunc).eigenvalues)
            values[bad] = values[bad] + 1
            return qhat.DiagOperator(tuple(values))

        monkeypatch.setattr(qhat, "dilation_operator", corrupted)
        unseen = bad == n or (bad == 0 and q0 == 0)
        assert realization_check(q0, n) is unseen, bad
        assert _dense_residual_vanishes(q0, n) is unseen, bad


def test_realization_check_builds_no_matrix_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("the realization check built a matrix")

    monkeypatch.setattr(ScalarMatrix, "__matmul__", refuse)
    monkeypatch.setattr(ScalarMatrix, "scale_rows", refuse)
    for q0 in (Q, 2, Fraction(3, 7)):
        assert realization_check(q0, 10) is True
    with pytest.raises(AssertionError):
        _dense_residual_vanishes(2, 3)


@pytest.mark.parametrize("q0", [Q, 0, 2, -1], ids=repr)
def test_realization_check_compares_images_of_one_side(q0, monkeypatch):
    # each image of A or B in turn dropped, or sent one monomial on: the
    # columns of B A and q0 A B then differ in target or have an image on
    # one side only, and the check answers as the dense residual does
    n = 4
    real = realization(q0, n)
    size = len(real.basis)
    verdicts = set()
    for name in ("a", "b"):
        for j, image in enumerate(getattr(real, name).images):
            moved = image and ((image[0] + 1) % size, image[1])
            for changed in (None, moved):
                images = list(getattr(real, name).images)
                images[j] = changed
                bad = qplane.OpRealization(n, real.basis, **{
                    "a": real.a, "b": real.b,
                    name: qplane.MonomialMap(tuple(images))})
                monkeypatch.setattr(qplane, "realization",
                                    lambda q, trunc: bad)
                expected = _residual_vanishes(bad, q0)
                assert realization_check(q0, n) is expected, (name, j)
                verdicts.add(expected)
    assert verdicts == {True, False}


_CAPPED_CHECK = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from psifoc.qplane import realization_check
try:
    realization_check(2, sys.maxsize + 1)
except OverflowError:
    print("OverflowError")
"""


def test_realization_refuses_a_size_past_maxsize(run_python):
    # the dilation weights are refused before a tuple of n + 1 powers
    # grows; under the memory cap an unguarded build ends in MemoryError
    proc = run_python("-c", _CAPPED_CHECK)
    assert (proc.returncode, proc.stdout) == (0, "OverflowError\n"), proc.stderr


@pytest.mark.parametrize("lam", [
    [Fraction(a + 2, a + 3) for a in range(5)], [Q + a for a in range(5)]],
    ids=["fraction", "ratfunc"])
def test_weighted_pair_mutes_by_x_degree(lam):
    # weights that multiply the eigenvalues lam give B A = L A B, with L
    # the eigenvalue at the x-degree of each row: distinct eigenvalues
    n = len(lam) - 1
    weights = [1]
    for a in range(1, n + 1):
        weights.append(normalize(weights[-1] * lam[a]))
    real = qplane._weighted_realization(weights, n)
    a, b = real.a.to_matrix(), real.b.to_matrix()
    by_row = [lam[xd] for xd, _ in real.basis]
    assert _is_zero(qhat.qhat_mutator(b, a, qhat.DiagOperator(tuple(by_row))))
    by_row[real.index(2, 1)] += 1
    off = qhat.DiagOperator(tuple(by_row))
    assert not _is_zero(qhat.qhat_mutator(b, a, off))


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

    # qplane calls the matrices function through its module, at call time
    monkeypatch.setattr(matrices, "fermat_factorization_mismatches", fake)
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
    real = matrices.fermat_factorization_mismatches

    def counted(size, mode):
        calls.append(mode.t)
        return real(size, mode)

    monkeypatch.setattr(matrices, "fermat_factorization_mismatches", counted)
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


_TWISTS = (3, Fraction(-2, 5), Q, Q / (1 + Q))


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


@pytest.mark.parametrize("t", (0, 2, Fraction(1, 3), -1, Q / (1 + Q)),
                         ids=repr)
def test_general_product_powers_are_gauss_binomials(t):
    # away from q the product folds its term pairs; the binomial theorem
    # checks it against the Pascal recurrence, an independent route
    power = QPlanePoly.one(t)
    for n in range(9):
        assert set(power.coeffs) <= {(k, n - k) for k in range(n + 1)}
        for k in range(n + 1):
            assert power.coefficient(k, n - k) == gauss_binomial(n, k, t), (
                n, k)
        power = power * QPlanePoly.x_plus_y(t)


def _dense_realization(weights, n):
    """A and B as dense grids over the graded basis, column by column."""
    basis = [(a, total - a)
             for total in range(n + 1) for a in range(total + 1)]
    pos = {m: i for i, m in enumerate(basis)}
    a_grid = [[0] * len(basis) for _ in basis]
    b_grid = [[0] * len(basis) for _ in basis]
    for col, (xd, yd) in enumerate(basis):
        if xd + yd < n:
            a_grid[pos[xd + 1, yd]][col] = 1
            b_grid[pos[xd, yd + 1]][col] = weights[xd]
    return a_grid, b_grid


def _assert_entries_identical(real, weights):
    a_grid, b_grid = _dense_realization(weights, real.n)
    for matrix, grid in ((real.a.to_matrix(), a_grid),
                         (real.b.to_matrix(), b_grid)):
        assert (matrix.rows, matrix.cols) == (len(grid), len(grid))
        for row, expected in zip(matrix.data, grid):
            assert all(type(v) is type(w) and v == w
                       for v, w in zip(row, expected, strict=True))


@pytest.mark.parametrize("q0", [Q, 0, 1, 2, -1, Fraction(3, 7),
                                RatFunc([1], [1, 1])], ids=repr)
def test_realization_rows_match_the_dense_grids(q0):
    for n in range(1, 11):
        real = realization(q0, n)
        _assert_entries_identical(real, [normalize(q0 ** a)
                                         for a in range(n + 1)])


@pytest.mark.parametrize("fam", [classical(), gauss(), gauss(2),
                                 fibonacci(), psi.custom([1, 2, 3, 5, 7])],
                         ids=lambda fam: fam.label)
def test_observation1_realization_rows_match_the_dense_grids(fam,
                                                             monkeypatch):
    built = []
    weighted = qplane._weighted_realization
    monkeypatch.setattr(
        qplane, "_weighted_realization",
        lambda weights, n: built.append((list(weights), weighted(weights, n)))
        or built[-1][1])
    for n in range(0, 11 if fam.kind != "custom" else 5):
        explore_observation1_general(fam, n)
    assert len(built) == (11 if fam.kind != "custom" else 5)
    for weights, real in built:
        _assert_entries_identical(real, weights)


@pytest.mark.parametrize("coeff", [RatFunc([1], [1, 1]), 2, Fraction(1, 3)],
                         ids=repr)
def test_product_at_q_with_other_coefficients_takes_the_fold(coeff):
    # a coefficient that is not a polynomial RatFunc sends the product at q
    # to the scalar-operator route, with the same normal form
    a = QPlanePoly(Q, {(1, 0): coeff, (0, 1): Q, (1, 2): RatFunc([1, 1])})
    b = QPlanePoly(Q, {(2, 1): Q ** 2, (0, 1): coeff, (1, 0): -1})
    for left, right in ((a, b), (b, a), (a, a)):
        assert sorted((key, repr(value)) for key, value in
                      (left * right).coeffs.items()) == _naive_product(
            left, right)
