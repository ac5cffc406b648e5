"""Diagonal mutator operators and the operator binomial calculus."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from psifoc import matrices, psi, qhat, scalars
from psifoc.errors import (DegreeOutOfRange, DimensionMismatch,
                           NonInvertibleDenominator)
from psifoc.matrices import (ScalarMatrix, ScalarMode,
                             fermat_factorization_mismatches)
from psifoc.psi import classical, custom, fibonacci, gauss, gauss_binomial
from psifoc.qhat import (DiagOperator, binomial_eigenvalue, dilation_operator,
                         eval_on_monomial, geometric_sum, op_binomial, op_factorial, op_integer,
                         per_eigenvalue, qhat_mutator, qhat_operator)
from psifoc.qplane import QPlanePoly, verify_gauss_binomial_theorem
from psifoc.scalars import Q, RatFunc


def _constant(op, value):
    """The operator of op's truncation with every eigenvalue equal to
    value."""
    return DiagOperator((value,) * len(op.eigenvalues))


def _is_zero(m):
    return not any(any(row) for row in m.data)


def test_gauss_eigenvalues_collapse_to_q():
    op = qhat_operator(gauss(), 64)
    assert all(value == Q for value in op.eigenvalues)


def test_fibonacci_eigenvalues_hand_values():
    op = qhat_operator(fibonacci(), 5)
    # (F_{m+1} - 1)/F_m for m = 1..5
    expected = [0, 1, 1, Fraction(4, 3), Fraction(7, 5)]
    assert [eval_on_monomial(op, m) for m in range(1, 6)] == expected
    # degree 0 uses the degree-1 convention
    assert eval_on_monomial(op, 0) == eval_on_monomial(op, 1)


def test_classical_eigenvalues_are_one():
    op = qhat_operator(classical(), 10)
    assert set(op.eigenvalues) == {1}


def test_gauss_at_point_constant():
    op = qhat_operator(gauss(Fraction(2)), 6)
    assert eval_on_monomial(op, 5) == 2


def test_op_integer(cold_tables):
    g = qhat_operator(gauss(), 4)
    assert op_integer(3, g).eigenvalues == (RatFunc([1, 1, 1]),) * 5
    # [n]_q is the closed form: no table of the sums below it grows
    assert op_integer(500, g).eigenvalues[0] == RatFunc([1] * 500)
    assert (psi._sum_step, RatFunc, Q) not in psi._memo
    assert op_integer(1, g) == _constant(g, 1)
    c = qhat_operator(classical(), 4)
    assert op_integer(4, c).eigenvalues == (4,) * 5
    assert op_integer(0, c) == _constant(c, 0)


def test_op_factorial():
    c = qhat_operator(classical(), 3)
    assert op_factorial(0, c) == _constant(c, 1)
    g = qhat_operator(gauss(), 3)
    assert op_factorial(2, g).eigenvalues == (RatFunc([1, 1]),) * 4
    f = qhat_operator(fibonacci(), 4)
    # at eigenvalue 4/3: 1 * (1 + 4/3) * (1 + 4/3 + 16/9) = (7/3)(37/9)
    assert eval_on_monomial(op_factorial(3, f), 4) == Fraction(259, 27)


def test_op_binomial():
    g = qhat_operator(gauss(), 5)
    assert op_binomial(2, 1, g).eigenvalues == (RatFunc([1, 1]),) * 6
    assert op_binomial(7, 0, g) == _constant(g, 1)
    f = qhat_operator(fibonacci(), 4)
    # eigenvalue at degree 2 is (F3 - 1)/F2 = 1, so (3 1) is 1 + 1 + 1
    assert eval_on_monomial(op_binomial(3, 1, f), 2) == 3
    assert op_binomial(4, -1, f) == _constant(f, 0)
    assert op_binomial(4, 5, f) == _constant(f, 0)


def test_op_binomial_matches_scalar_route():
    # quotient route against the independent recurrence route
    for fam in (classical(), fibonacci(), gauss(Fraction(2))):
        op = qhat_operator(fam, 10)
        for n in range(11):
            for k in range(n + 1):
                symbol = op_binomial(n, k, op)
                for m in range(11):
                    lam = eval_on_monomial(op, m)
                    assert eval_on_monomial(symbol, m) == gauss_binomial(n, k, lam)


def test_op_binomial_symmetry():
    for fam in (fibonacci(), gauss()):
        op = qhat_operator(fam, 6)
        for n in range(9):
            for k in range(n + 1):
                assert op_binomial(n, k, op) == op_binomial(n, n - k, op)


def test_non_invertible_denominator():
    # table 1, 2, -1 gives eigenvalue (2-1)/1 = 1 at degree 1 and
    # (-1-1)/2 = -1 at degree 2; at -1 the 2-factorial vanishes
    fam = custom([1, 2, -1, 1])
    op = qhat_operator(fam, 2)
    assert eval_on_monomial(op, 2) == -1
    with pytest.raises(NonInvertibleDenominator) as err:
        op_binomial(3, 2, op)
    assert err.value.degree == 2


def test_eval_on_monomial_bounds():
    op = qhat_operator(fibonacci(), 3)
    with pytest.raises(DegreeOutOfRange):
        eval_on_monomial(op, 4)
    with pytest.raises(DegreeOutOfRange):
        eval_on_monomial(op, -1)
    assert eval_on_monomial(_constant(op, 1), 2) == 1


def test_dilation_operator():
    op = dilation_operator(Fraction(2), 5)
    assert op.eigenvalues == (1, 2, 4, 8, 16, 32)
    sym = dilation_operator(Q, 3)
    assert eval_on_monomial(sym, 3) == Q ** 3


def test_operator_algebra_shapes():
    a = qhat_operator(fibonacci(), 3)
    b = qhat_operator(fibonacci(), 5)
    with pytest.raises(DimensionMismatch):
        a + b
    with pytest.raises(DimensionMismatch):
        a * b


def test_operator_sums_and_products_are_per_degree():
    h = Fraction(1, 2)
    # (a, b, a + b, a * b), eigenvalue by eigenvalue, worked by hand
    cases = [
        ((1, -2, 3), (4, 5, -3), (5, 3, 0), (4, -10, -9)),
        ((h, Fraction(-3, 4), Fraction(2, 3)),
         (h, Fraction(1, 4), Fraction(1, 3)),
         (1, -h, 1), (Fraction(1, 4), Fraction(-3, 16), Fraction(2, 9))),
        ((Q, RatFunc([0, 1], [1, 1])),
         (RatFunc([1, -1]), RatFunc([1], [1, 1])),
         (RatFunc.one(), RatFunc.one()),
         (RatFunc([0, 1, -1]), RatFunc([0, 1], [1, 2, 1]))),
    ]
    for a, b, total, product in cases:
        left, right = DiagOperator(a), DiagOperator(b)
        for got, want in (((left + right).eigenvalues, total),
                          ((left * right).eigenvalues, product)):
            assert got == want
            assert [type(v) for v in got] == [type(v) for v in want]
        longer = DiagOperator(a + a[:1])
        for op in (left.__add__, left.__mul__):
            with pytest.raises(DimensionMismatch,
                               match=f"degrees {len(a) - 1} and {len(a)}"):
                op(longer)
            assert op(a) is NotImplemented
        with pytest.raises(TypeError):
            left + 1
    matrix = ScalarMatrix([[1, Fraction(-1, 2)],
                           [0, RatFunc([0, 1], [1, 1])]])
    assert repr(matrix) == "ScalarMatrix[1, -1/2; 0, (q)/(1 + q)]"
    assert repr(QPlanePoly.x_plus_y(Q) ** 2) == (
        "(1)*x^0*y^2 + (1 + q)*x^1*y^1 + (1)*x^2*y^0")
    assert repr(QPlanePoly(Q, {})) == "0"


def test_operator_serialization():
    op = qhat_operator(gauss(Fraction(2)), 2)
    assert op.to_json() == (
        '[{"degree": 0, "eigenvalue": "2"}, '
        '{"degree": 1, "eigenvalue": "2"}, '
        '{"degree": 2, "eigenvalue": "2"}]')


def test_qhat_mutator_classical_is_commutator():
    a = ScalarMatrix([[1, 2], [3, 4]])
    b = ScalarMatrix([[0, 1], [1, 0]])
    identity_op = DiagOperator((1, 1))
    expected = (a @ b) - (b @ a)
    assert qhat_mutator(a, b, identity_op) == expected


def test_qhat_mutator_self():
    a = ScalarMatrix([[1, 2], [3, 4]])
    identity_op = DiagOperator((1, 1))
    assert _is_zero(qhat_mutator(a, a, identity_op))
    halving = DiagOperator((Fraction(1, 2), Fraction(1, 2)))
    assert not _is_zero(qhat_mutator(a, a, halving))


def test_qhat_mutator_dimension_check():
    a = ScalarMatrix([[1, 2], [3, 4]])
    with pytest.raises(DimensionMismatch):
        qhat_mutator(a, a, DiagOperator((1, 1, 1)))


def test_qhat_mutator_checks_matrix_shapes():
    square, wide = ScalarMatrix([[1, 2], [3, 4]]), ScalarMatrix([[1, 2]])
    cube = ScalarMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    for a, b, op in ((square, wide, DiagOperator((1, 1))),
                     (wide, square, DiagOperator((1, 1))),
                     (square, cube, DiagOperator((1, 1, 1)))):
        with pytest.raises(DimensionMismatch, match="square matrices"):
            qhat_mutator(a, b, op)


def test_per_eigenvalue_once_per_distinct_eigenvalue():
    calls = []

    def fn(lam):
        calls.append(lam)
        return lam * 10

    assert per_eigenvalue(DiagOperator((2, 3, 2)), fn) == [20, 30, 20]
    assert calls == [2, 3]


@pytest.mark.parametrize("lams", [(2, RatFunc.constant(2)),
                                  (RatFunc.constant(2), 2),
                                  (Fraction(2), RatFunc.constant(2), 2)])
def test_per_eigenvalue_keeps_field_tags_apart(lams):
    # the eigenvalues compare and hash alike; each degree keeps its own tag
    op = DiagOperator(lams)
    for values in (op_binomial(4, 2, op), op_integer(3, op),
                   op_factorial(3, op)):
        assert ([type(v) for v in values.eigenvalues]
                == [RatFunc if isinstance(lam, RatFunc) else int
                    for lam in lams])


_SIX_FAMILIES = (classical(), gauss(), gauss(2), gauss(Fraction(1, 2)),
                 fibonacci(), custom([1, 3, 4, 9, 3, 2, 5]))


@pytest.mark.parametrize("fam", _SIX_FAMILIES, ids=lambda f: f.label)
def test_operator_integers_once_per_distinct_eigenvalue(fam, monkeypatch):
    op = qhat_operator(fam, 5)
    distinct = {(type(lam), lam) for lam in op.eigenvalues}
    # the degree-by-degree products, computed before the counting starts
    want_int = [geometric_sum(lam, 4) for lam in op.eigenvalues]
    want_fact = [scalars.normalize(
        scalars.one_like(lam) * geometric_sum(lam, 1) * geometric_sum(lam, 2)
        * geometric_sum(lam, 3) * geometric_sum(lam, 4))
        for lam in op.eigenvalues]
    calls = []

    def counted(t, n):
        calls.append((type(t), t, n))
        return geometric_sum(t, n)
    monkeypatch.setattr(qhat, "geometric_sum", counted)
    got_int = op_integer(4, op).eigenvalues
    assert sorted(calls, key=repr) == sorted(
        ((*key, 4) for key in distinct), key=repr)
    calls.clear()
    got_fact = op_factorial(4, op).eigenvalues
    assert len(calls) == 4 * len(distinct)
    assert {(tag, lam) for tag, lam, _n in calls} == distinct
    for got, want in ((got_int, want_int), (got_fact, want_fact)):
        assert list(got) == want
        assert [type(v) for v in got] == [type(v) for v in want]


# a routine of (n, k, t), and (n, k, value at t = 2) for two cells
_AT_TWO = {
    "gauss_binomial": (psi.gauss_binomial, ((4, 2, 35), (8, 3, 97155))),
    "binomial_eigenvalue": (binomial_eigenvalue,
                            ((4, 2, 35), (8, 3, 97155))),
    "geometric_sum": (lambda n, k, t: psi.geometric_sum(t, n),
                      ((4, 0, 15), (8, 0, 255))),
}


@pytest.mark.parametrize("name", sorted(_AT_TWO))
def test_caches_keep_field_tags_apart(name, cold_tables):
    # 2, Fraction(2) and RatFunc.constant(2) are equal and hash alike; a
    # cache keyed by value alone hands a later call the value of another
    # tag cached first.  Both rational tags give the normalized int.
    routine, cells = _AT_TWO[name]
    tags = (2, Fraction(2), RatFunc.constant(2))
    for (n, k, want), order in itertools.product(
            cells, itertools.permutations(tags)):
        cold_tables()
        values = {type(t): routine(n, k, t) for t in order}
        for tag in (int, Fraction):
            assert values[tag] == want and type(values[tag]) is int, tag
        assert values[RatFunc] == RatFunc.constant(want)
        assert type(values[RatFunc]) is RatFunc


def test_symbolic_binomial_routes_share_one_quotient(cold_tables):
    # psi_binomial of the symbolic Gauss family and the operator symbol at
    # lambda = q read one cache, whichever side of (n, k) comes first
    for n in range(13):
        for k in range(n + 1):
            value = psi.psi_binomial(gauss(), n, k)
            assert binomial_eigenvalue(n, k, Q) is value
            assert binomial_eigenvalue(n, n - k, Q) is value
    cold_tables()
    for n in range(13):
        for k in range(n + 1):
            value = binomial_eigenvalue(n, k, Q)
            assert psi.psi_binomial(gauss(), n, n - k) is value


# 2, Fraction(2) and RatFunc.constant(2) compare and hash alike, so a
# cache keyed by value alone would hand one tag's result to another
_PARAMS = (2, Fraction(2), Fraction(1, 2), RatFunc.constant(2), Q)
_CALLS = st.tuples(st.sampled_from(("gauss_binomial", "binomial_eigenvalue",
                                    "geometric_sum", "op_factorial",
                                    "psi_binomial", "binomial_theorem",
                                    "fermat")),
                   st.integers(0, 5), st.integers(0, 5),
                   st.sampled_from(range(len(_PARAMS))))


def _call(name, n, k, p):
    t = _PARAMS[p]
    # psi_binomial and binomial_theorem take no parameter: they run at q
    if name == "psi_binomial":
        return (psi.psi_binomial(gauss(), n, k),)
    if name == "binomial_theorem":
        report = verify_gauss_binomial_theorem(n)
        return (report.passed, report.to_json())
    if name == "gauss_binomial":
        return (psi.gauss_binomial(n, k, t),)
    if name == "fermat":
        # the mismatches of size n + 1, then its last hook of stored sums
        bad = fermat_factorization_mismatches(n + 1, ScalarMode(t))
        return (*bad, *psi._entry(matrices._hook_step, t, n))
    if name == "binomial_eigenvalue":
        return (binomial_eigenvalue(n, k, t),)
    if name == "geometric_sum":
        return (geometric_sum(t, n),)
    return op_factorial(n, DiagOperator((t, t))).eigenvalues


def _tagged(values):
    return [(type(v), v) for v in values]


# the fixture hands over its clearing function, which every example calls
@given(st.data())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_results_do_not_depend_on_call_order(cold_tables, data):
    calls = data.draw(st.lists(_CALLS, min_size=1, max_size=8))
    order = data.draw(st.permutations(range(len(calls))))
    cold_tables()
    expected = {}
    for i in sorted(range(len(calls)), key=lambda i: calls[i]):
        expected[i] = _tagged(_call(*calls[i]))
    cold_tables()
    for i in order:
        assert _tagged(_call(*calls[i])) == expected[i], calls[i]


# the eigenvalues the quotient tests run at besides q: rationals, 0 and the
# roots of unity 1 and -1, and two fib eigenvalues, (F_4 - 1)/F_3 and
# (F_5 - 1)/F_4
_RATIONAL_EIGENVALUES = [2, Fraction(1, 2), Fraction(3, 2), -2, 0, 1, -1,
                         Fraction(4, 3), Fraction(7, 5)]


def test_symbolic_binomial_eigenvalue_matches_the_recurrence(monkeypatch,
                                                            cold_tables):
    # the Gauss quotient at lambda = q and at rational eigenvalues
    # against the recurrence, which the quotient must not read
    table_entry = psi._entry

    def no_rows(step, t, n):
        assert step is not psi._row_step, "binomial_eigenvalue read the rows"
        return table_entry(step, t, n)

    for lam in [Q, *_RATIONAL_EIGENVALUES]:
        rows = {n: [gauss_binomial(n, k, lam) for k in range(-1, n + 2)]
                for n in range(31)}
        cold_tables()
        monkeypatch.setattr(psi, "_entry", no_rows)
        refused = set()
        for n, row in rows.items():
            for k, value in enumerate(row, start=-1):
                try:
                    quotient = binomial_eigenvalue(n, k, lam)
                except NonInvertibleDenominator:
                    refused.add((n, k))
                    continue
                assert type(quotient) is type(value), (lam, n, k)
                assert quotient == value, (lam, n, k)
        monkeypatch.setattr(psi, "_entry", table_entry)
        # at -1, [2]_lambda = 0 refuses every symbol with max(k, n-k) >= 2
        assert refused == ({(n, k) for n in rows for k in range(n + 1)
                            if max(k, n - k) >= 2} if lam == -1 else set())


def _naive_factorial(lam, n):
    out = scalars.one_like(lam)
    for i in range(1, n + 1):
        out = out * sum((lam ** j for j in range(i)), scalars.zero_like(lam))
    return out


def _factorial_quotient(n, k, lam):
    """The single quotient [n]! / ([k]! [n-k]!) of naive factorials,
    refused with the operator's text where the denominator vanishes."""
    denominator = _naive_factorial(lam, k) * _naive_factorial(lam, n - k)
    if denominator == 0:
        raise NonInvertibleDenominator(
            f"binomial symbol ({n} {k}) has vanishing denominator at "
            f"eigenvalue {scalars.render(lam)}")
    return scalars.div(_naive_factorial(lam, n), denominator)


@pytest.mark.parametrize("lam", [2 * Q, 1 + Q, Q / (1 + Q),
                                 RatFunc.constant(3), RatFunc.constant(-1),
                                 Fraction(-1), *_RATIONAL_EIGENVALUES],
                         ids=repr)
def test_symbolic_binomial_eigenvalue_matches_the_factorial_quotient(
        lam, cold_tables):
    top = 9 if lam == -1 else 13
    refused = set()
    for n in range(top):
        for k in range(n + 1):
            try:
                expected = repr(_factorial_quotient(n, k, lam))
            except NonInvertibleDenominator as exc:
                expected = f"NonInvertibleDenominator: {exc}"
            try:
                value = repr(binomial_eigenvalue(n, k, lam))
            except NonInvertibleDenominator as exc:
                value = f"NonInvertibleDenominator: {exc}"
                refused.add((n, k))
            assert value == expected, (n, k)
    # at -1, [2]_lambda = 0 refuses every symbol with max(k, n-k) >= 2
    assert refused == ({(n, k) for n in range(top) for k in range(n + 1)
                        if max(k, n - k) >= 2} if lam == -1 else set())
