"""Exact matrices, Pascal/Fermat constructions, the factorization check,
and the subspace-counting oracle."""

import operator
import random
from fractions import Fraction

import pytest

from psifoc import matrices, psi, qhat, scalars
from psifoc.errors import (DimensionMismatch, NonInvertibleDenominator,
                           SizeTooLarge, UnsupportedField)
from psifoc.matrices import (EigenMode, ScalarMatrix, ScalarMode,
                             count_subspaces, export_matrix,
                             fermat_factorization_mismatches, fermat_matrix,
                             pascal_matrix, resolve_mode)
from psifoc.psi import classical, custom, fibonacci, gauss
from psifoc.qplane import MonomialMap, realization, realization_check
from psifoc.ratfunc import Q, RatFunc, eval_ratfunc


def test_matrix_basics():
    m = ScalarMatrix([[1, 2], [3, 4]])
    assert m.entry(1, 0) == 3
    assert (m @ ScalarMatrix([[1, 0], [0, 1]])) == m
    assert not any(any(row) for row in (m - m).data)
    assert m.scale_rows([1, 0]).data == ((1, 2), (0, 0))
    assert m.apply([1, 1]) == (3, 7)
    with pytest.raises(DimensionMismatch):
        m @ ScalarMatrix([[1, 2]])
    with pytest.raises(ValueError):
        ScalarMatrix([[1], [2, 3]])


def test_pascal_classical():
    p = pascal_matrix(1, 3, ScalarMode(1))
    assert p.data == ((1, 0, 0), (1, 1, 0), (1, 2, 1))


def test_pascal_symbolic_entry():
    p = pascal_matrix(1, 3, ScalarMode(Q))
    assert p.entry(2, 1) == RatFunc([1, 1])


def test_pascal_x_powers():
    p = pascal_matrix(2, 3, ScalarMode(1))
    assert p.entry(2, 0) == 4


def test_pascal_row_sums():
    p = pascal_matrix(1, 9, ScalarMode(1))
    for i in range(9):
        assert sum(p.data[i]) == 2 ** i


def test_pascal_product_identity_classical_only():
    # the additive product law P[x] P[y] = P[x+y] is a classical fact;
    # it is checked here at t = 1 only, deformed t makes no such claim
    for x0, y0 in ((1, 1), (2, 3), (Fraction(1, 2), Fraction(3, 2))):
        lhs = (pascal_matrix(x0, 6, ScalarMode(1))
               @ pascal_matrix(y0, 6, ScalarMode(1)))
        assert lhs == pascal_matrix(x0 + y0, 6, ScalarMode(1))


def test_fermat_classical():
    f = fermat_matrix(3, ScalarMode(1))
    assert f.data == ((1, 1, 1), (1, 2, 3), (1, 3, 6))


def test_fermat_symbolic_entry():
    f = fermat_matrix(2, ScalarMode(Q))
    assert f.entry(1, 1) == RatFunc([1, 1])


def test_fermat_eigen_fibonacci():
    # eigenvalue at degree 4 is 4/3, so the (1,1) entry is 1 + 4/3
    f = fermat_matrix(2, EigenMode(fibonacci(), 4))
    assert f.entry(1, 1) == Fraction(7, 3)


def test_fermat_symmetry():
    for size in (2, 5, 10):
        f = fermat_matrix(size, ScalarMode(Q))
        assert f.data == tuple(zip(*f.data))


def test_pascal_and_fermat_check_only_x0(monkeypatch):
    # the entries come from checked routes, so the two constructors skip
    # the public constructor's check of every entry
    mode = ScalarMode(Fraction(2, 3))
    checked = []
    check = matrices.check
    monkeypatch.setattr(matrices, "check",
                        lambda v: checked.append(v) or check(v))
    pascal = pascal_matrix(Fraction(1, 2), 8, mode)
    assert checked == [Fraction(1, 2)]
    fermat = fermat_matrix(8, mode)
    assert checked == [Fraction(1, 2)]
    for matrix in (pascal, fermat):
        assert ScalarMatrix(matrix.data) == matrix
        assert (matrix.rows, matrix.cols) == (8, 8)
    assert pascal.entry(2, 5) == 0 and pascal.entry(5, 2) != 0


def test_resolve_mode():
    assert resolve_mode(ScalarMode(Q)) == Q
    assert resolve_mode(EigenMode(fibonacci(), 4)) == Fraction(4, 3)
    assert resolve_mode(EigenMode(gauss(), 17)) == Q


def test_factorization_small_symbolic():
    # size 2 is the two-term case checkable by hand:
    # t + 1 = (2 1) at the (1,1) entry
    assert not fermat_factorization_mismatches(2, ScalarMode(Q))


def test_factorization_classical():
    assert not fermat_factorization_mismatches(6, ScalarMode(1))


def test_factorization_symbolic_size8():
    assert not fermat_factorization_mismatches(8, ScalarMode(Q))


def test_factorization_eigen_sweep():
    for fam in (classical(), fibonacci(), gauss(Fraction(2))):
        for m in range(9):
            assert not fermat_factorization_mismatches(
                8, EigenMode(fam, m)), (fam, m)


def test_factorization_builds_the_mutator_once(monkeypatch):
    calls = []
    build = qhat.qhat_operator

    def counted(fam, n_trunc):
        calls.append((fam, n_trunc))
        return build(fam, n_trunc)

    monkeypatch.setattr(qhat, "qhat_operator", counted)
    assert not fermat_factorization_mismatches(4, EigenMode(fibonacci(), 3))
    assert calls == [(fibonacci(), 3)]


def _hook_cells(n):
    return [(n, j) for j in range(n + 1)] + [(i, n) for i in range(n)]


@pytest.mark.parametrize("t", [Q, 1, 2, Fraction(1, 3)], ids=repr)
def test_stored_hook_sums_are_the_fermat_entries(t, cold_tables, stored):
    # a twisted sum equal to its entry is kept as that entry, so the hook
    # table holds no second copy of the matrix
    assert not fermat_factorization_mismatches(7, ScalarMode(t))
    fermat = fermat_matrix(7, ScalarMode(t))
    hooks = stored(matrices._hook_step, t)
    assert len(hooks) == 7
    for n, hook in enumerate(hooks):
        assert len(hook) == 2 * n + 1
        for (i, j), value in zip(_hook_cells(n), hook):
            assert value is fermat.entry(i, j), (i, j)


def _corrupt_recurrence(monkeypatch):
    """Make entry (3, 1) of the recurrence rows off by one, at every
    parameter, where the twisted sums read it: psi._row_step, which grows
    rows 4 and up from the wrong row 3.  The matrix side reads the
    quotients, so only the sums change."""
    right = psi._row_step

    def wrong(seq, t):
        row = right(seq, t)
        return row if len(seq) != 3 else (row[0], row[1] + 1, *row[2:])

    monkeypatch.setattr(psi, "_row_step", wrong)


def _entrywise_mismatches(size, t):
    """The factorization check with every sum computed afresh."""
    fermat = fermat_matrix(size, ScalarMode(t))
    bad = []
    for i in range(size):
        for j in range(size):
            acc = psi.twisted_sum(i, j, j, t)
            if acc != fermat.entry(i, j):
                bad.append((i, j, fermat.entry(i, j), acc))
    return bad


@pytest.mark.parametrize("t", [Q, 2, Fraction(1, 3)], ids=repr)
def test_hook_table_keeps_a_wrong_sum(t, monkeypatch, cold_tables):
    _corrupt_recurrence(monkeypatch)
    expected = _entrywise_mismatches(6, t)
    # (4, 1), (4, 2), (5, 1), (5, 2) and (5, 3) grow wrong from (3, 1):
    # the sum (i, j) reads (i, k) and (j, j - k) for k up to min(i, j),
    # so it is wrong for i >= 3 and j >= 1, and for i = 2 and j >= 3
    assert [(i, j) for i, j, _, _ in expected] == [
        (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3), (3, 4), (3, 5),
        (4, 1), (4, 2), (4, 3), (4, 4), (4, 5),
        (5, 1), (5, 2), (5, 3), (5, 4), (5, 5)]
    assert fermat_factorization_mismatches(6, ScalarMode(t)) == expected
    assert fermat_factorization_mismatches(6, ScalarMode(t)) == expected


@pytest.mark.parametrize("order", [range(1, 9), range(8, 0, -1),
                                   (4, 1, 8, 2, 7, 3, 6, 5)],
                         ids=["ascending", "descending", "mixed"])
def test_factorization_does_not_depend_on_size_order(order, monkeypatch,
                                                    cold_tables):
    _corrupt_recurrence(monkeypatch)
    for t in (Q, 2):
        expected = {size: _entrywise_mismatches(size, t)
                    for size in order}
        # row 3 is first read at size 4
        assert sorted(size for size, bad in expected.items() if bad) == [
            4, 5, 6, 7, 8]
        cold_tables()
        got = {size: fermat_factorization_mismatches(size, ScalarMode(t))
               for size in order}
        assert got == expected


def test_fermat_degenerate_eigenvalue_raises():
    # custom table 1, 2, -1: eigenvalue -1 at degree 2 kills the
    # factorial quotient for entries needing the 2-factorial
    fam = custom([1, 2, -1, 1])
    with pytest.raises(NonInvertibleDenominator):
        fermat_matrix(3, EigenMode(fam, 2))


def test_count_subspaces_known_values():
    assert count_subspaces(2, 4, 2) == 35
    assert count_subspaces(3, 2, 1) == 4
    for q0 in (2, 3):
        for n in range(5):
            assert count_subspaces(q0, n, 0) == 1
            assert count_subspaces(q0, n, n) == 1
    assert count_subspaces(2, 3, 5) == 0
    assert count_subspaces(2, 3, -1) == 0


def test_count_subspaces_errors():
    with pytest.raises(UnsupportedField):
        count_subspaces(5, 2, 1)
    with pytest.raises(SizeTooLarge):
        count_subspaces(2, 5, 1)
    with pytest.raises(ValueError):
        count_subspaces(2, -1, 0)


def test_oracle_agrees_with_gauss_binomial():
    for q0 in (2, 3):
        for n in range(5):
            for k in range(n + 1):
                counted = count_subspaces(q0, n, k)
                evaluated = eval_ratfunc(psi.psi_binomial(gauss(), n, k), q0)
                assert counted == evaluated, (q0, n, k)


def test_oracle_reaches_no_binomial_route(monkeypatch):
    # the count must stand apart from every binomial the library computes
    def refuse(*args):
        raise AssertionError("the subspace oracle read a binomial route")

    for module in (psi, qhat, matrices):
        for name in ("gauss_binomial", "_gauss_quotient", "_entry"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    for q0 in (2, 3):
        for n in range(5):
            # k <= 2 in GF(3)^4: k = 3 and 4 take 60-80 ms each
            for k in range(3 if (q0, n) == (3, 4) else n + 1):
                want = Fraction(1)
                for i in range(k):
                    want *= Fraction(q0 ** (n - i) - 1, q0 ** (i + 1) - 1)
                assert count_subspaces(q0, n, k) == want, (q0, n, k)


def test_export_csv():
    assert export_matrix(ScalarMatrix([[1]]), "csv") == "1\n"
    assert export_matrix(fermat_matrix(2, ScalarMode(1)), "csv") == "1,1\n1,2\n"


def test_export_json():
    text = export_matrix(fermat_matrix(2, ScalarMode(Q)), "json")
    assert '"1 + q"' in text
    assert text == '[["1", "1"], ["1", "1 + q"]]'


def test_export_unknown_format():
    with pytest.raises(ValueError):
        export_matrix(ScalarMatrix([[1]]), "xml")


def _dense_product(a, b):
    """The dense triple loop: entry (i, j) sums a_ik b_kj over k ascending,
    skipping zero factors.  A monomial map is read as its matrix."""
    a, b = (m.to_matrix() if isinstance(m, MonomialMap) else m
            for m in (a, b))
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = 0
            for k in range(a.cols):
                x, y = a.entry(i, k), b.entry(k, j)
                if x and y:
                    acc = acc + x * y
            row.append(scalars.normalize(acc))
        out.append(tuple(row))
    return tuple(out)


# Products and elementwise ops skip zeros: an entry no term reaches (no
# product term in @, zero on both sides of + and -, zero where scale_rows
# scales) is int 0, and a row no term reaches is int 0 throughout.  The
# dense routes below do the arithmetic on every entry; values agree, and
# so do types wherever the dense route reaches no term either.

def _sparse_values(rng):
    """Entry makers: int, Fraction and RatFunc, with zeros of each kind."""
    return ((lambda: rng.randint(-9, 9), 0),
            (lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
             Fraction(0)),
            (lambda: RatFunc([rng.randint(-3, 3), rng.randint(-3, 3)],
                             [1, rng.randint(1, 3)]), RatFunc.zero()))


def _sparse(rng, rows, cols, value, zero):
    """About 30% nonzero entries; about 30% of the rows are all zero, each
    such row of one zero kind."""
    return ScalarMatrix([
        [rng.choice((0, zero))] * cols if rng.random() < 0.3
        else [value() if rng.random() < 0.3 else rng.choice((0, zero))
              for _ in range(cols)]
        for _ in range(rows)])


def _flat(grid):
    return [v for row in grid for v in row]


@pytest.mark.parametrize("seed", range(6))
def test_matmul_matches_dense_triple_loop(seed):
    rng = random.Random(seed)
    for value, zero in _sparse_values(rng):
        n, m, p = (rng.randint(1, 6) for _ in range(3))
        a, b = _sparse(rng, n, m, value, zero), _sparse(rng, m, p, value, zero)
        zero_a = ScalarMatrix([[zero] * m] * n)
        zero_b = ScalarMatrix([[zero] * p] * m)
        for left, right in ((a, b), (zero_a, b), (a, zero_b)):
            product, dense = (left @ right).data, _dense_product(left, right)
            assert product == dense
            assert ([type(v) for v in _flat(product)]
                    == [type(v) for v in _flat(dense)])
        assert {type(v) for v in _flat((zero_a @ b).data)} == {int}
        with pytest.raises(DimensionMismatch):
            a @ _sparse(rng, m + 1, p, value, zero)


def _dense_zip(a, b, op):
    return tuple(tuple(scalars.normalize(op(x, y)) for x, y in zip(ra, rb))
                 for ra, rb in zip(a.data, b.data))


def _dense_scale_rows(a, factors):
    return tuple(tuple(scalars.normalize(f * v) for v in row)
                 for f, row in zip(factors, a.data))


@pytest.mark.parametrize("seed", range(6))
def test_elementwise_ops_match_the_dense_route(seed):
    rng = random.Random(seed)
    for value, zero in _sparse_values(rng):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        a, b = (_sparse(rng, n, m, value, zero) for _ in range(2))
        nothing = ScalarMatrix([[zero] * m] * n)
        factors = [value() for _ in range(n)]
        for left, right in ((a, b), (nothing, b), (a, nothing)):
            for op in (operator.add, operator.sub):
                result = op(left, right).data
                assert result == _dense_zip(left, right, op)
                assert all(type(v) is int for x, y, v in zip(
                    _flat(left.data), _flat(right.data), _flat(result))
                    if not x and not y)
            scaled = left.scale_rows(factors).data
            assert scaled == _dense_scale_rows(left, factors)
            assert all(type(v) is int for x, v in zip(_flat(left.data),
                                                      _flat(scaled)) if not x)
        assert not any(any(row) for row in (a - a).data)


@pytest.mark.parametrize("seed", range(4))
def test_qhat_mutator_matches_the_dense_route(seed):
    rng = random.Random(seed)
    for value, zero in _sparse_values(rng):
        n = rng.randint(1, 6)
        a, b = (_sparse(rng, n, n, value, zero) for _ in range(2))
        op = qhat.DiagOperator(tuple(value() for _ in range(n)))
        ba = _dense_product(b, a)
        dense = tuple(
            tuple(scalars.normalize(x - op.eigenvalues[i] * y)
                  for x, y in zip(row, ba[i]))
            for i, row in enumerate(_dense_product(a, b)))
        assert qhat.qhat_mutator(a, b, op).data == dense


def _random_map(rng, n, value, zero):
    """A map on n monomials whose images are by turns none, a zero weight
    of either kind and a drawn weight, at random targets."""
    return MonomialMap(tuple(
        rng.choice((None, (rng.randrange(n), rng.choice((0, zero))),
                    (rng.randrange(n), value()), (rng.randrange(n), value())))
        for _ in range(n)))


def _dense_map(f):
    """The matrix of a map, entry by entry."""
    grid = [[0] * len(f.images) for _ in f.images]
    for j, image in enumerate(f.images):
        if image is not None:
            grid[image[0]][j] = image[1]
    return tuple(map(tuple, grid))


@pytest.mark.parametrize("seed", range(6))
def test_map_composition_is_the_matrix_product(seed):
    rng = random.Random(seed)
    for value, zero in _sparse_values(rng):
        n = rng.randint(1, 8)
        f, g = (_random_map(rng, n, value, zero) for _ in range(2))
        for m in (f, g):
            data = m.to_matrix().data
            assert data == _dense_map(m)
            assert ([type(v) for v in _flat(data)]
                    == [type(v) for v in _flat(_dense_map(m))])
            assert m == MonomialMap(m.images)
        for left, right in ((f, g), (g, f), (f, f)):
            product = (left @ right).to_matrix().data
            dense = (left.to_matrix() @ right.to_matrix()).data
            assert product == dense == _dense_product(left, right)
            assert ([type(v) for v in _flat(product)]
                    == [type(v) for v in _flat(dense)])
        with pytest.raises(DimensionMismatch):
            f @ MonomialMap((None,) * (n + 1))


def test_scale_rows_checks_every_factor():
    with pytest.raises(TypeError):
        ScalarMatrix([[0]]).scale_rows([1.5])
    with pytest.raises(TypeError):
        ScalarMatrix([[1], [0]]).scale_rows([1, 1.5])


@pytest.mark.parametrize("q0", [Q, 0, 1, 2, -1, Fraction(3, 7), -3])
@pytest.mark.parametrize("n", range(2, 11))
def test_realization_check_matches_the_dense_residual(q0, n):
    # B A - q0 A B by dense products, on inputs of total degree below n
    real = realization(q0, n)
    ba, ab = _dense_product(real.b, real.a), _dense_product(real.a, real.b)
    dense = all(scalars.normalize(ba[row][col] - q0 * ab[row][col]) == 0
                for col, (xd, yd) in enumerate(real.basis) if xd + yd < n
                for row in range(len(real.basis)))
    assert realization_check(q0, n) is dense is True
