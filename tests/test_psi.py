"""Weight families, generalized binomials, and the convolution check."""

import json
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import psifoc
from psifoc import (_record, cli, errors, matrices, psi, qhat, qplane,
                    ratfunc, scalars)
from psifoc.errors import InadmissibleFamily, MixedFieldTags, NegativeIndex
from psifoc.psi import (classical, custom, fibonacci, gauss, gauss_binomial,
                        psi_binomial, psi_factorial, psi_falling, psi_int,
                        psi_weight)
from psifoc.qplane import (QPlanePoly, check_psi_multiplicativity,
                           psi_plus_power)
from psifoc.ratfunc import Q, RatFunc, eval_ratfunc


def test_psi_int():
    assert psi_int(fibonacci(), 5) == 5
    assert psi_int(gauss(), 3) == RatFunc([1, 1, 1])
    assert psi_int(classical(), 7) == 7
    assert psi_int(classical(), 0) == 0
    assert psi_int(gauss(), 0) == RatFunc.zero()
    assert psi_int(gauss(Fraction(2)), 3) == 7


def test_psi_factorial():
    # 5_F! = F5 F4 F3 F2 F1 = 5*3*2*1*1
    assert psi_factorial(fibonacci(), 5) == 30
    assert psi_factorial(fibonacci(), 0) == 1
    assert psi_factorial(gauss(), 0) == RatFunc.one()
    assert psi_factorial(gauss(), 2) == RatFunc([1, 1])


def test_psi_falling():
    # F4 * F3 = 3 * 2
    assert psi_falling(fibonacci(), 4, 2) == 6
    assert psi_falling(classical(), 10, 0) == 1
    # (1 + q + q^2)(1 + q)(1) expanded
    expected = RatFunc([1, 1, 1]) * RatFunc([1, 1])
    assert psi_falling(gauss(), 3, 3) == expected
    assert expected == RatFunc([1, 2, 2, 1])
    with pytest.raises(NegativeIndex):
        psi_falling(fibonacci(), 2, 4)


def test_psi_binomial_values():
    assert psi_binomial(fibonacci(), 4, 2) == 6
    assert psi_binomial(gauss(), 4, 2) == RatFunc([1, 1, 2, 1, 1])
    assert psi_binomial(fibonacci(), 4, -1) == 0
    assert psi_binomial(gauss(), 4, -1) == RatFunc.zero()
    assert psi_binomial(fibonacci(), 4, 5) == 0
    with pytest.raises(ValueError):
        psi_binomial(fibonacci(), -1, 0)


@pytest.mark.parametrize("fam", [classical(), fibonacci(), gauss(),
                                 gauss(Fraction(2)),
                                 custom([Fraction(1), Fraction(3, 2),
                                         Fraction(2), Fraction(5),
                                         Fraction(7)] * 5)])
def test_binomial_symmetry_and_boundary(fam):
    for n in range(21):
        assert psi_binomial(fam, n, 0) == psi_binomial(fam, n, n)
        one = psi.family_one(fam)
        assert psi_binomial(fam, n, 0) == one
        for k in range(n + 1):
            assert psi_binomial(fam, n, k) == psi_binomial(fam, n, n - k)


def test_fibonomial_integrality():
    for n in range(31):
        for k in range(n + 1):
            value = psi_binomial(fibonacci(), n, k)
            assert isinstance(value, int), (n, k, value)


def test_gauss_at_one_is_classical():
    for n in range(16):
        for k in range(n + 1):
            assert psi_binomial(gauss(1), n, k) == psi_binomial(classical(), n, k)


def test_gauss_symbolic_eval_matches_gauss_at_point():
    for q0 in (Fraction(2), Fraction(3), Fraction(3, 7), Fraction(-2)):
        for n in range(9):
            for k in range(n + 1):
                symbolic = psi_binomial(gauss(), n, k)
                assert eval_ratfunc(symbolic, q0) == psi_binomial(gauss(q0), n, k)


def test_gauss_at_minus_one_is_inadmissible():
    # 1 + (-1) = 0, so the second family integer vanishes
    with pytest.raises(InadmissibleFamily):
        psi_int(gauss(-1), 2)


def test_two_binomial_routes_agree(monkeypatch, cold_tables):
    # quotient-of-factorials definition vs the recurrence oracle, compared
    # on their canonical forms.  The symbolic quotient divides as it goes
    # but never reads the recurrence rows; the recurrence never divides.
    rows = {n: [gauss_binomial(n, k, Q) for k in range(-1, n + 2)]
            for n in range(31)}

    def no_rows(step, t, n):
        assert step is not psi._row_step, "psi_binomial read the recurrence"
        return table_entry(step, t, n)

    table_entry = psi._entry
    monkeypatch.setattr(psi, "_entry", no_rows)
    for n, row in rows.items():
        for k, value in enumerate(row, start=-1):
            quotient = psi_binomial(gauss(), n, k)
            assert type(quotient) is RatFunc
            assert (quotient.num, quotient.den) == (value.num, value.den)
    monkeypatch.undo()

    def no_division(*args):
        raise AssertionError("gauss_binomial divided")

    cold_tables()
    monkeypatch.setattr(RatFunc, "__truediv__", no_division)
    monkeypatch.setattr(RatFunc, "__rtruediv__", no_division)
    assert [gauss_binomial(30, k, Q) for k in range(-1, 32)] == rows[30]


@pytest.mark.parametrize("table, n, k, message", [
    # the falling factors are read before the factorial ones, as in the
    # single quotient: index 3 fails before the zero 1_psi is reached
    ((RatFunc([0]), RatFunc([1, 1])), 3, 2,
     "custom table of length 2 has no entry for n = 3"),
    ((RatFunc([1]), RatFunc([1, 1])), 4, 2,
     "custom table of length 2 has no entry for n = 4"),
    ((RatFunc([1]), RatFunc([0])), 2, 1, "custom table has 2_psi = 0"),
    ((RatFunc([0]), RatFunc([1, 1])), 2, 1, "custom table has 1_psi = 0"),
])
def test_short_ratfunc_table_fails_at_first_bad_index(table, n, k, message):
    with pytest.raises(InadmissibleFamily) as info:
        psi_binomial(custom(table), n, k)
    assert str(info.value) == message


def test_gauss_binomial_total_at_roots_of_unity():
    # the recurrence route stays defined where quotients degenerate
    assert gauss_binomial(2, 1, -1) == 0
    assert gauss_binomial(3, 1, -1) == 1
    assert gauss_binomial(4, 2, -1) == 2


def test_psi_plus_power_fibonacci_expansions():
    two = psi_plus_power(fibonacci(), 2)
    assert two.coefficient(2, 0) == 1
    assert two.coefficient(1, 1) == 1  # F2
    assert two.coefficient(0, 2) == 1
    four = psi_plus_power(fibonacci(), 4)
    assert four.coefficient(3, 1) == 3   # F4
    assert four.coefficient(2, 2) == 6   # F4*F3
    assert four.coefficient(1, 3) == 3
    five = psi_plus_power(fibonacci(), 5)
    assert five.coefficient(4, 1) == 5   # F5
    assert five.coefficient(3, 2) == 15  # F5*F4
    classic = psi_plus_power(classical(), 3)
    assert [classic.coefficient(k, 3 - k) for k in range(4)] == [1, 3, 3, 1]


def test_multiplicativity_fails_for_fibonacci():
    # 4 of the 6 monomials of (x + y)(x + y)^4 against (x + y)^5 differ,
    # in lexicographic order; the first, x y^4, is F4 + 1 = 4 in the
    # product but F5 = 5 in the direct power
    payload = json.loads(
        check_psi_multiplicativity(fibonacci(), 1, 4).to_json())
    assert payload == {
        "params": {"check": "multiplicativity", "family": "fib",
                   "r": 1, "s": 4},
        "verdict": "fail",
        "mismatches": [
            {"monomial": "x^1*y^4", "lhs": "4", "rhs": "5"},
            {"monomial": "x^2*y^3", "lhs": "9", "rhs": "15"},
            {"monomial": "x^3*y^2", "lhs": "9", "rhs": "15"},
            {"monomial": "x^4*y^1", "lhs": "4", "rhs": "5"},
        ],
    }


def test_multiplicativity_fails_for_symbolic_gauss():
    # the convolution powers multiply in commuting variables (t = 1), where
    # the symbolic Gauss binomials do not: 1 + 1 against (2, 1)_q = 1 + q
    report = check_psi_multiplicativity(gauss(), 1, 1)
    assert report.mismatches == [{"monomial": "x^1*y^1", "lhs": "2",
                                  "rhs": "1 + q"}]


def test_multiplicativity_reports_monomials_the_product_lacks():
    # at q0 = -2, (x + y)(x^2 - x y + y^2) = x^3 + y^3: the mixed
    # monomials cancel in the product but carry [3] = 3 in the power
    report = check_psi_multiplicativity(gauss(-2), 1, 2)
    assert report.mismatches == [
        {"monomial": "x^1*y^2", "lhs": "0", "rhs": "3"},
        {"monomial": "x^2*y^1", "lhs": "0", "rhs": "3"},
    ]


def test_multiplicativity_holds_classically():
    for r in range(6):
        for s in range(6):
            if r + s <= 10:
                assert check_psi_multiplicativity(classical(), r, s).passed


def test_multiplicativity_holds_for_gauss_at_one():
    assert check_psi_multiplicativity(gauss(1), 2, 3).passed


def test_custom_family_errors():
    bad = custom([1, 0, 2])
    with pytest.raises(InadmissibleFamily):
        psi_int(bad, 2)
    short = custom([1, 2])
    with pytest.raises(InadmissibleFamily):
        psi_int(short, 3)
    assert psi_int(short, 0) == 0
    assert psi_binomial(short, 2, 1) == 2


def test_psi_weight_is_reciprocal_factorial():
    assert psi.psi_weight(fibonacci(), 5) == Fraction(1, 30)
    assert psi.psi_weight(classical(), 4) == Fraction(1, 24)
    assert psi.psi_weight(gauss(), 0) == RatFunc.one()
    assert psi.psi_weight(gauss(), 2) == RatFunc([1], [1, 1])


def test_commpoly_serialization():
    terms = psi_plus_power(fibonacci(), 2).to_json_terms()
    assert terms == [
        {"xdeg": 0, "ydeg": 2, "coeff": "1"},
        {"xdeg": 1, "ydeg": 1, "coeff": "1"},
        {"xdeg": 2, "ydeg": 0, "coeff": "1"},
    ]


@given(st.integers(min_value=0, max_value=6),
       st.integers(min_value=0, max_value=6))
@settings(max_examples=50, deadline=None)
def test_classical_multiplicativity_property(r, s):
    assert check_psi_multiplicativity(classical(), r, s).passed


@given(st.integers(min_value=0, max_value=20),
       st.integers(min_value=-2, max_value=22))
@settings(max_examples=100, deadline=None)
def test_fibonomial_symmetry_property(n, k):
    assert psi_binomial(fibonacci(), n, k) == psi_binomial(fibonacci(), n, n - k)


def test_ratfunc_custom_table_keeps_its_tag():
    # the first three Gauss integers as a table: same values, same tag
    fam = custom([RatFunc([1]), RatFunc([1, 1]), RatFunc([1, 1, 1])])
    for n in range(4):
        assert psi_factorial(fam, n) == psi_factorial(gauss(), n)
        assert type(psi_factorial(fam, n)) is RatFunc
        assert psi_weight(fam, n) == psi_weight(gauss(), n)
        assert type(psi_weight(fam, n)) is RatFunc
        for k in range(-1, n + 2):
            value = psi_binomial(fam, n, k)
            assert value == psi_binomial(gauss(), n, k)
            assert type(value) is RatFunc
    assert psi_weight(fam, 2) == RatFunc([1], [1, 1])


def test_family_tag_fixed_when_built():
    with pytest.raises(MixedFieldTags):
        custom([1, Q])
    with pytest.raises(TypeError, match="q"):
        gauss(Q)
    assert gauss(Fraction(4, 2)).q0 == 2 and type(gauss(Fraction(4, 2)).q0) is int


def test_gauss_row_deeper_than_recursion_limit(cold_tables):
    assert gauss_binomial(600, 1, 1) == 600


def _gauss_row_by_product(n, t):
    row = [Fraction(1)]
    for k in range(1, n + 1):
        row.append(row[-1] * Fraction(1 - t ** (n - k + 1), 1 - t ** k))
    return tuple(row)


def _fermat_hook_by_product(n, t):
    # the Fermat entries (n, 0) .. (n, n), (0, n) .. (n-1, n): the binomial
    # (i+j, j) from the product formula, not a twisted sum
    cells = [(n, j) for j in range(n + 1)] + [(i, n) for i in range(n)]
    return tuple(_gauss_row_by_product(i + j, t)[j] for i, j in cells)


def _fib_by_doubling(n):
    # (F(n), F(n+1)) by F(2m) = F(m)(2F(m+1) - F(m)), F(2m+1) = F(m)^2 +
    # F(m+1)^2, which share no step with the table's recurrence
    if n == 0:
        return 0, 1
    a, b = _fib_by_doubling(n // 2)
    c, d = a * (2 * b - a), a * a + b * b
    return (d, c + d) if n % 2 else (c, d)


# each table: its step, parameter, first index read, a reader of entry n
# (public where the library has one), and an independent formula for entry
# n; a cheap step needs many entries for the threads to race.  The power
# and hook steps also read, and may grow, the rows table at their parameter.
_TABLES = {
    "rows": (psi._row_step, 3, 80,
             lambda n: tuple(gauss_binomial(n, k, 3) for k in range(n + 1)),
             lambda n: _gauss_row_by_product(n, 3)),
    "fib": (psi._fib_step, None, 5000, lambda n: psi_int(fibonacci(), n),
            lambda n: _fib_by_doubling(n)[0]),
    "sums": (psi._sum_step, 3, 400, lambda n: psi.geometric_sum(3, n),
             lambda n: (3 ** n - 1) // 2),
    "powers": (qplane._power_step, 3, 40,
               lambda n: psi._entry(qplane._power_step, 3, n),
               lambda n: QPlanePoly.x_plus_y(3) ** n),
    "hooks": (matrices._hook_step, 3, 16,
              lambda n: psi._entry(matrices._hook_step, 3, n),
              lambda n: _fermat_hook_by_product(n, 3)),
}


@pytest.mark.parametrize("name", sorted(_TABLES))
def test_tables_grow_safely_across_threads(name, cold_tables, stored):
    # an entry grown from a stale predecessor, or appended twice, breaks the
    # formula from there on
    step, t, first, read, formula = _TABLES[name]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start = threading.Barrier(6)

        def grow(n):
            start.wait(timeout=30)
            return read(n)

        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = {n: pool.submit(grow, n)
                       for n in range(first, first + 6)}
            values = {n: f.result(timeout=60) for n, f in futures.items()}
        table = list(stored(step, t))
    finally:
        sys.setswitchinterval(interval)
    assert table == [formula(n) for n in range(len(table))]
    for n, value in values.items():
        assert value == formula(n)


# Six threads meet the rational-function field in a process that has not
# loaded it: none may see the module before its body has run.  The import
# system lists a module in sys.modules before it runs the body; a finder
# that sleeps there holds that window open, and five threads arrive in it
# while the first one imports.
_COLD_FIELD = """
import sys, threading, time
from concurrent.futures import ThreadPoolExecutor
from importlib.machinery import PathFinder
from psifoc import render
from psifoc.psi import gauss, psi_binomial

class SlowRatfunc(PathFinder):
    @classmethod
    def find_spec(cls, name, path=None, target=None):
        if name != "psifoc.ratfunc":
            return None
        spec = PathFinder.find_spec(name, path, target)
        run = spec.loader.exec_module

        def exec_module(module):
            listed.set()
            time.sleep(0.1)
            run(module)
        spec.loader.exec_module = exec_module
        return spec

sys.meta_path.insert(0, SlowRatfunc)
assert "psifoc.ratfunc" not in sys.modules
listed = threading.Event()

def binomial(i):
    if i:
        listed.wait(timeout=30)
    return render(psi_binomial(gauss(), 9, 4))

with ThreadPoolExecutor(max_workers=6) as pool:
    print(*sorted(set(pool.map(binomial, range(6)))), sep="\\n")
"""


def test_threads_load_the_rational_function_field_once(run_python):
    proc = run_python("-c", _COLD_FIELD)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        psifoc.render(psi.psi_binomial(gauss(), 9, 4))]


# Factorials multiply rationals by a product tree and rational functions
# by a left fold; the fold below is the definition both must match, one
# running product factor by factor.
_TREE_FAMILIES = [classical(), gauss(), gauss(2), gauss(Fraction(1, 2)),
                  fibonacci(), custom([RatFunc([j, 1]) for j in range(1, 61)])]


@pytest.mark.parametrize("fam", _TREE_FAMILIES, ids=lambda fam: fam.label)
def test_product_tree_matches_the_left_fold(fam):
    # symbolic Gauss products of degree up to 1770 are slow to repeat, so
    # that family is compared at fewer lengths
    lengths = {*range(13), 31, 60, 61} if fam.label == "gauss" else range(62)
    fold = psi.family_one(fam)
    for n in range(61):
        fold = fold * psi_int(fam, n) if n else fold
        if n in lengths:
            value, want = psi_factorial(fam, n), scalars.normalize(fold)
            assert value == want and type(value) is type(want), n
    fold = psi.family_one(fam)
    for k in range(62):
        # k = 61 reaches the factor 0_psi
        fold = fold * psi_int(fam, 61 - k) if k else fold
        if k in lengths:
            value, want = psi_falling(fam, 60, k), scalars.normalize(fold)
            assert value == want and type(value) is type(want), k


def test_product_tree_reads_every_factor_first():
    # the first bad factor in the fold's order is the one reported
    with pytest.raises(InadmissibleFamily, match="has 2_psi = 0"):
        psi_factorial(custom([1, 0, 2, 0]), 4)
    with pytest.raises(InadmissibleFamily, match="no entry for n = 4"):
        psi_falling(custom([1, 0]), 4, 3)
    with pytest.raises(NegativeIndex, match="reaches index -1"):
        psi_falling(custom([1, 1]), 2, 4)


def test_symbolic_factorials_multiply_by_short_factors(monkeypatch):
    # a product tree at q multiplies two long partial products: its shorter
    # factor reached 285 coefficients in the Gauss factorial of 40
    shorter = []
    pmul = ratfunc._pmul
    monkeypatch.setattr(ratfunc, "_pmul", lambda a, b: shorter.append(
        min(len(a), len(b))) or pmul(a, b))
    psi_factorial(gauss(), 40)
    psi_falling(gauss(), 40, 20)
    qhat.op_factorial(40, qhat.qhat_operator(gauss(), 3))
    assert shorter and max(shorter) <= 40


# Symbolic custom tables take the factorial quotient, which no workload
# runs; at a point x each value evaluates to the same call on the table
# evaluated at x.
_SYMBOLIC_TABLES = {"j+q": [RatFunc([j, 1]) for j in range(1, 13)],
                    "[j]_q": [psi_int(gauss(), j) for j in range(1, 13)],
                    "1/(1+jq)": [RatFunc([1], [1, j]) for j in range(1, 13)]}


@pytest.mark.parametrize("name", _SYMBOLIC_TABLES)
def test_symbolic_custom_tables_match_their_evaluations(name):
    table = _SYMBOLIC_TABLES[name]
    fam = custom(table)
    for x in (2, Fraction(1, 3), Fraction(-1, 20)):
        at_x = custom([eval_ratfunc(v, x) for v in table])
        for n in range(13):
            assert eval_ratfunc(psi_factorial(fam, n), x) == psi_factorial(
                at_x, n), (x, n)
            for k in range(n + 1):
                for fn in (psi_binomial, psi_falling):
                    assert eval_ratfunc(fn(fam, n, k), x) == fn(
                        at_x, n, k), (fn.__name__, x, n, k)
    if name == "[j]_q":
        assert all(psi_binomial(fam, n, k) == psi_binomial(gauss(), n, k)
                   for n in range(13) for k in range(n + 1))


# The symbolic Gauss quotients are kept per requested entry, and a new
# entry steps from the highest one stored on its diagonal n - k.

def _stored_quotients():
    return [value for key, value in psi._memo.items()
            if key[0] is psi._gauss_quotient]


def test_single_quotient_request_stores_one_entry(cold_tables,
                                                  monkeypatch):
    # the steps (n-k+i, i) of a request are not kept: keeping them raised
    # the peak memory of a cold (300, 150) eightfold
    value = psi_binomial(gauss(), 70, 30)
    assert [v is value for v in _stored_quotients()] == [True]
    walks = []
    steps = ratfunc.q_binomial_steps
    monkeypatch.setattr(ratfunc, "q_binomial_steps",
                        lambda *args: walks.append(args) or steps(*args))
    # its neighbour (71, 31) on the diagonal n - k = 40 is one step away:
    # the walk starts from the stored entry and divides by [31]_q only
    assert psi_binomial(gauss(), 71, 31) == gauss_binomial(71, 31, Q)
    assert walks == [(value, 40, range(31, 32))]
    assert len(_stored_quotients()) == 2
    cold_tables()
    assert not psi._memo


def test_quotient_walk_deeper_than_recursion_limit(cold_tables):
    one = RatFunc.constant(1)
    qhat.binomial_eigenvalue(601, 1, one)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        # 599 stored entries probed below (1200, 600), then 599 steps
        value = qhat.binomial_eigenvalue(1200, 600, one)
    finally:
        sys.setrecursionlimit(limit)
    assert value == RatFunc.constant(math.comb(1200, 600))


@pytest.mark.parametrize("t", [Q, RatFunc([1, 2]), RatFunc([0, 1], [1, 1])],
                         ids=str)
def test_quotients_do_not_depend_on_their_neighbours(t, cold_tables):
    cells = [(n, k) for n in range(13) for k in range(n // 2 + 1)]
    cold = {}
    for n, k in cells:
        cold_tables()
        cold[n, k] = qhat.binomial_eigenvalue(n, k, t)
    cold_tables()
    for n, k in cells:  # row by row: each entry after its neighbours
        value = qhat.binomial_eigenvalue(n, k, t)
        assert type(value) is RatFunc
        assert (value.num, value.den) == (cold[n, k].num, cold[n, k].den)
        assert value == gauss_binomial(n, k, t)
        assert psi._gauss_quotient(n, k, t) is value


def _quotient_requests_across_threads(binomial):
    """Six entries of the diagonal n - k = 12 requested at once, then one
    cold entry requested by all six: each thread's pair of values."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start = threading.Barrier(6)

        def request(k):
            start.wait(timeout=30)
            own = binomial(12 + k, k)
            start.wait(timeout=30)
            return own, binomial(48, 24)

        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = {k: pool.submit(request, k) for k in range(7, 13)}
            return {k: f.result(timeout=60) for k, f in futures.items()}
    finally:
        sys.setswitchinterval(interval)


def test_quotient_store_grows_safely_across_threads(cold_tables):
    # a step taken from a neighbour another thread has not finished breaks
    # the entries, and the cold entry all six ask for must be stored once;
    # at q and at a rational t, which the operator symbols store alike
    routes = [(Q, lambda n, k: psi_binomial(gauss(), n, k)),
              (Fraction(3, 2), lambda n, k: qhat.binomial_eigenvalue(
                  n, k, Fraction(3, 2)))]
    for t, binomial in routes:
        cold_tables()
        values = _quotient_requests_across_threads(binomial)
        for k, (own, _) in values.items():
            assert own == gauss_binomial(12 + k, k, t)
            assert binomial(12 + k, k) is own
        shared = binomial(48, 24)
        assert shared == gauss_binomial(48, 24, t)
        assert all(common is shared for _, common in values.values())


@pytest.mark.parametrize("t", [Q, 2, Fraction(1, 3), Q / (1 + Q)], ids=str)
def test_gauss_quotient_reads_one_entry_for_either_side(t, cold_tables):
    # (n, k) and (n, n-k) are one binomial, kept once on the shorter side
    for n in range(13):
        for k in range(n + 1):
            value = psi._gauss_quotient(n, k, t)
            assert psi._gauss_quotient(n, n - k, t) is value, (n, k)
    assert len(_stored_quotients()) == sum(n // 2 + 1 for n in range(13))


def test_gauss_quotient_at_rational_t_is_exact(cold_tables):
    # each step divides exactly: a rational t gives an int or a Fraction,
    # never a float
    value = psi._gauss_quotient(4, 2, 2)
    assert value == 35 and type(value) is int
    value = psi._gauss_quotient(4, 2, Fraction(1, 2))
    assert value == Fraction(35, 16) and type(value) is Fraction


def _module_stores():
    """len() of every module-level dict, list and set of psifoc."""
    return {f"{mod.__name__}.{name}": len(obj)
            for mod in (psifoc, _record, cli, errors, matrices, psi, qhat,
                        qplane, scalars)
            for name, obj in vars(mod).items()
            if isinstance(obj, (dict, list, set))}


def test_only_the_memo_store_grows(cold_tables):
    # every value kept across calls lives in psi._memo, which cold_tables
    # empties; a store elsewhere would keep warm values across it
    before = _module_stores()
    qplane.verify_gauss_binomial_theorem(6)
    for t in (Q, Fraction(1, 2)):
        matrices.fermat_factorization_mismatches(5, matrices.ScalarMode(t))
    qplane.verify_cauchy_operator(fibonacci(), 3, 2, 2, 6)
    qplane.explore_observation1_general(fibonacci(), 5)
    [psi_binomial(gauss(), 6, k) for k in range(7)]
    psi_factorial(fibonacci(), 10)
    qplane.realization_check(Q, 4)
    grown = {name: (before.get(name), size)
             for name, size in _module_stores().items()
             if size != before.get(name)}
    assert list(grown) == ["psifoc.psi._memo"], grown
    cold_tables()
    assert not psi._memo


# At the symbolic q, a twisted sum of Gauss row entries adds each product
# into one packed integer; the fold below is the scalar-operator route
# every other t takes.

def _twisted_fold(r, s, j, t):
    total = scalars.zero_like(t)
    for k in range(max(0, j - s), min(r, j) + 1):
        total = total + (gauss_binomial(r, k, t) * gauss_binomial(s, j - k, t)
                         * t ** ((r - k) * (j - k)))
    return scalars.normalize(total)


def test_twisted_sum_at_q_matches_the_fold():
    for r in range(13):
        for s in range(13):
            for j in range(-1, r + s + 2):
                value = psi.twisted_sum(r, s, j, Q)
                want = _twisted_fold(r, s, j, Q)
                assert value == want and type(value) is RatFunc, (r, s, j)
                assert value == gauss_binomial(r + s, j, Q), (r, s, j)
    # the empty range sums to the zero rational function
    assert psi.twisted_sum(3, 4, -1, Q) == RatFunc.zero()
    assert psi.twisted_sum(3, 4, 8, Q) == RatFunc.zero()


def test_twisted_sum_at_an_equal_q_takes_the_packed_route(cold_tables,
                                                           monkeypatch):
    # the mutator eigenvalue of the symbolic Gauss family is q, but not the
    # object Q; its rows are the rows of Q, and its sums are packed
    q = qhat.qhat_operator(gauss(), 1).eigenvalues[0]
    assert q == Q and q is not Q
    packed = []
    pack = ratfunc.shifted_product_sum
    monkeypatch.setattr(ratfunc, "shifted_product_sum",
                        lambda terms: packed.append(1) or pack(terms))
    for r, s, j in ((4, 5, 3), (6, 2, 6), (0, 3, 2), (7, 7, 7)):
        value = psi.twisted_sum(r, s, j, q)
        assert value == _twisted_fold(r, s, j, Q)
        assert type(value) is RatFunc
    assert len(packed) == 4


def test_twisted_sum_at_q_crosses_the_64_bit_edge(cold_tables):
    # the slot bound of a Gauss twisted sum passes 2^64 near r + s = 72 at
    # j = (r + s) / 2; below it the sum reads the cached packings, above
    # it packs each factor again in wider slots
    for r, s in ((30, 30), (35, 35), (36, 36), (40, 30), (45, 45), (60, 30)):
        for j in (1, (r + s) // 4, (r + s) // 2, r + s - 1):
            value = psi.twisted_sum(r, s, j, Q)
            assert value == gauss_binomial(r + s, j, Q), (r, s, j)
            assert type(value) is RatFunc


def test_twisted_sums_on_cold_and_warm_packings_agree(cold_tables):
    # the first pass packs every table entry it reads and the second reads
    # the packings; fresh tables packed in the reverse order agree too
    keys = [(r, s, j) for r in range(0, 41, 4) for s in range(0, 41, 4)
            for j in (0, (r + s) // 3, (r + s) // 2)]

    def forms(keys):
        values = {key: psi.twisted_sum(*key, Q) for key in keys}
        assert {type(value) for value in values.values()} == {RatFunc}
        return {key: (value.num, value.den) for key, value in values.items()}

    cold = forms(keys)
    assert forms(keys) == cold
    cold_tables()
    assert forms(keys[::-1]) == cold == forms(keys[::-1])


_EVAL_POINTS = (2, Fraction(-1, 3), Fraction(5, 2))


def _q_route_values(n_max):
    """Per (n, k): the row entry, psi_binomial, binomial_eigenvalue and the
    power coefficient at the symbolic q."""
    return {(n, k): (gauss_binomial(n, k, Q), psi_binomial(gauss(), n, k),
                     qhat.binomial_eigenvalue(n, k, Q),
                     psi._entry(qplane._power_step, Q, n).coeffs[k, n - k])
            for n in range(n_max + 1) for k in range(n + 1)}


def test_q_route_evaluates_to_the_rational_route(cold_tables):
    # the tuple kernels at q against the scalar operators at rational t
    symbolic = _q_route_values(30)
    for t in _EVAL_POINTS:
        values = {}  # one evaluation per distinct object
        for (n, k), entries in symbolic.items():
            power = psi._entry(qplane._power_step, t, n)
            rational = (gauss_binomial(n, k, t), psi_binomial(gauss(t), n, k),
                        qhat.binomial_eigenvalue(n, k, t),
                        power.coeffs[k, n - k])
            for f, value in zip(entries, rational, strict=True):
                if id(f) not in values:
                    values[id(f)] = eval_ratfunc(f, t)
                assert values[id(f)] == value, (t, n, k)
    for n in range(31):
        assert len(psi._entry(qplane._power_step, Q, n).coeffs) == n + 1


def test_q_tables_grown_in_reverse_give_the_same_forms(cold_tables):
    forward = {key: [(f.num, f.den) for f in entries]
               for key, entries in _q_route_values(30).items()}
    cold_tables()
    # the Gauss quotients first, from the far end of each row and row 30
    # first, so each walk starts from a different stored neighbour
    for n in range(30, -1, -1):
        for k in range(n, -1, -1):
            qhat.binomial_eigenvalue(n, k, Q)
    backward = _q_route_values(30)
    for key, entries in backward.items():
        assert [(f.num, f.den) for f in entries] == forward[key], key
        for f in entries:
            assert f.den == (1,) and all(type(c) is int for c in f.num), key
