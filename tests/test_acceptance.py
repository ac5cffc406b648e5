"""Acceptance criteria, one test per criterion.

Every assertion is exact (the arithmetic is exact everywhere); criteria
with a runtime budget assert wall-clock bounds too.  Each test prints a
single CRITERION line so a -s run reads as a checklist.
"""

import json
import time
from fractions import Fraction

from psifoc import psi
from psifoc.cli import parse_command, run_command
from psifoc.matrices import (EigenMode, ScalarMode, count_subspaces,
                             fermat_factorization_mismatches)
from psifoc.psi import classical, fibonacci, gauss, psi_binomial
from psifoc.qhat import eval_on_monomial, qhat_operator
from psifoc.qplane import (QPlanePoly, check_psi_multiplicativity,
                           explore_observation1_general, psi_plus_power,
                           realization_check, verify_cauchy_operator,
                           verify_cauchy_scalar,
                           verify_gauss_binomial_theorem)
from psifoc.scalars import Q, eval_ratfunc


def _report(number: int, label: str) -> None:
    print(f"CRITERION {number}: PASS - {label}")


def test_criterion_1_binomial_theorem_on_quantum_plane():
    start = time.monotonic()
    report = verify_gauss_binomial_theorem(12)
    assert report.passed, report.mismatches
    # double-check one power directly against the independent routine
    power = QPlanePoly.x_plus_y(Q) ** 9
    for k in range(10):
        assert power.coefficient(k, 9 - k) == psi.gauss_binomial(9, k, Q)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _report(1, f"quantum-plane binomial theorem, n <= 12, symbolic "
               f"({elapsed:.2f}s)")


def test_criterion_2_cauchy_scalar_sweep():
    start = time.monotonic()
    for r in range(11):
        for s in range(11 - r):
            for j in range(r + s + 1):
                assert verify_cauchy_scalar(r, s, j, Q), (r, s, j)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _report(2, f"twisted Cauchy convolution, all r+s <= 10, all j, "
               f"symbolic ({elapsed:.2f}s)")


def test_criterion_3_cauchy_operator_sweep():
    start = time.monotonic()
    for fam in (classical(), fibonacci(), gauss(Fraction(2))):
        for r in range(9):
            for s in range(9 - r):
                for j in range(r + s + 1):
                    report = verify_cauchy_operator(fam, r, s, j, 8)
                    assert report.passed, (fam.label, r, s, j,
                                           report.mismatches)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _report(3, f"operator Cauchy convolution, three families, r+s <= 8, "
               f"maxdeg 8 ({elapsed:.2f}s)")


def test_criterion_4_fermat_factorization():
    assert not fermat_factorization_mismatches(8, ScalarMode(Q))
    for m in range(9):
        assert not fermat_factorization_mismatches(
            8, EigenMode(fibonacci(), m)), m
    _report(4, "Fermat matrix factorization, size 8, symbolic and "
               "Fibonacci eigenvalues m <= 8")


def test_criterion_5_subspace_oracle():
    start = time.monotonic()
    assert count_subspaces(2, 4, 2) == 35
    assert eval_ratfunc(psi_binomial(gauss(), 4, 2), 2) == 35
    for q0 in (2, 3):
        for n in range(5):
            for k in range(n + 1):
                counted = count_subspaces(q0, n, k)
                evaluated = eval_ratfunc(psi_binomial(gauss(), n, k), q0)
                assert counted == evaluated, (q0, n, k)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    _report(5, f"subspace counts equal Gaussian binomial evaluations, "
               f"q in {{2,3}}, n <= 4 ({elapsed:.2f}s)")


def test_criterion_6_fibonacci_counterexample():
    report = check_psi_multiplicativity(fibonacci(), 1, 4)
    assert report.verdict == "fail"
    assert [row["monomial"] for row in report.mismatches] == [
        "x^1*y^4", "x^2*y^3", "x^3*y^2", "x^4*y^1"]
    two = psi_plus_power(fibonacci(), 2)
    four = psi_plus_power(fibonacci(), 4)
    five = psi_plus_power(fibonacci(), 5)
    assert two.coefficient(1, 1) == 1       # F2
    assert four.coefficient(3, 1) == 3      # F4
    assert four.coefficient(2, 2) == 6      # F4*F3
    assert five.coefficient(4, 1) == 5      # F5
    assert five.coefficient(3, 2) == 15     # F5*F4
    _report(6, "Fibonacci convolution powers are not multiplicative; "
               "expansion coefficients 1; 3, 6; 5, 15")


def test_criterion_7_realization_relation():
    for q0 in (Q, 1, 2, -1):
        assert realization_check(q0, 8), q0
    _report(7, "y-shift dilation realization satisfies BA - q0 AB = 0 "
               "at N = 8 for q0 in {symbolic, 1, 2, -1}")


def test_criterion_8_mutator_eigenvalues():
    op = qhat_operator(gauss(), 64)
    assert all(value == Q for value in op.eigenvalues)
    fib_op = qhat_operator(fibonacci(), 5)
    expected = [0, 1, 1, Fraction(4, 3), Fraction(7, 5)]
    assert [eval_on_monomial(fib_op, m) for m in range(1, 6)] == expected
    _report(8, "Gauss mutator eigenvalues collapse to q up to degree 64; "
               "Fibonacci eigenvalues 0, 1, 1, 4/3, 7/5")


def test_criterion_9_fibonomial_integrality():
    for n in range(31):
        for k in range(n + 1):
            value = psi_binomial(fibonacci(), n, k)
            assert isinstance(value, int), (n, k, value)
    _report(9, "Fibonomial coefficients are integers for all n <= 30")


def test_criterion_10_ordered_expansion_exploration():
    for n in range(11):
        assert explore_observation1_general(gauss(), n).passed
        assert explore_observation1_general(classical(), n).passed
    report = explore_observation1_general(fibonacci(), 3)
    assert report.mismatches == [
        {"monomial": "x^2*y^1", "lhs": "1", "rhs": "3"}]
    code, text = run_command(parse_command(
        ["verify", "obs1", "--family", "fib", "--n", "3"]))
    assert code == 1
    assert json.loads(text)["mismatches"] == report.mismatches
    _report(10, "ordered expansion matches for Gauss and classical "
                "(n <= 10); Fibonacci n = 3 reports x^2 y: 1 vs 3, exit 1")


def test_criterion_11_cli_conformance():
    grid = [
        (["binom", "--family", "fib", "4", "2"], 0, "6"),
        (["fact", "--family", "fib", "5"], 0, "30"),
        (["falling", "--family", "fib", "4", "2"], 0, "6"),
        (["expand", "--family", "classical", "--power", "1"], 0, None),
        (["verify", "cauchy", "--family", "gauss", "--r", "2", "--s", "1",
          "--j", "1", "--maxdeg", "4"], 0, "PASS"),
        (["verify", "fermat", "--family", "fib", "--size", "3",
          "--maxdeg", "6"], 0, "PASS"),
        (["verify", "obs1", "--family", "fib", "--n", "3"], 1, None),
        (["matrix", "pascal", "--family", "gauss", "--size", "2",
          "--format", "csv"], 0, "1,0\n1,1"),
        (["matrix", "fermat", "--family", "classical", "--size", "2",
          "--format", "json"], 0, '[["1", "1"], ["1", "2"]]'),
        (["oracle", "subspaces", "--q", "3", "--n", "2", "--k", "1"], 0, "4"),
    ]
    for argv, expected_code, expected_text in grid:
        cmd = parse_command(argv)
        assert parse_command(cmd.canonical()) == cmd
        code, text = run_command(cmd)
        assert code == expected_code, (argv, code, text)
        if expected_text is not None:
            assert text == expected_text, (argv, text)
    # fuzzed argv never escapes ParseError (details in test_cli; a quick
    # deterministic sample here keeps the criterion self-contained)
    from psifoc.errors import ParseError
    hostile = [
        [], ["-h"], ["--help"], ["binom"], ["binom", "--family"],
        ["verify"], ["matrix"], ["matrix", "pascal"], ["\x00", "\n"],
        ["binom", "--family", "fib", "99999999999999999999", "1"],
        ["oracle", "subspaces", "--q"], ["--pretty"], ['"'], ["''"],
        ["binom", "--family", "custom:", "1", "1"],
    ]
    for argv in hostile:
        try:
            parse_command(argv)
        except ParseError:
            pass
    _report(11, "CLI grammar parses, exit codes honor the report, parser "
                "is total on hostile argv")
