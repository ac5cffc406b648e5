"""Command grammar, exit-code contract, and parser totality."""

import json
import math
import re
import string
import sys

import pytest
from hypothesis import given, settings, strategies as st

from psifoc import cli, psi, scalars
from psifoc.cli import Command, main, parse_command, run_command
from psifoc.errors import ParseError
from psifoc.psi import fibonacci, psi_binomial, psi_factorial, psi_falling


def test_parse_binom():
    cmd = parse_command(["binom", "--family", "fib", "4", "2"])
    assert cmd.verb == "binom"
    assert cmd.family == "fib"
    assert (cmd.n, cmd.k) == (4, 2)


def test_parse_verify_cauchy():
    cmd = parse_command(["verify", "cauchy", "--family", "gauss",
                         "--r", "2", "--s", "1", "--j", "1"])
    assert cmd.verb == "verify" and cmd.subverb == "cauchy"
    assert (cmd.r, cmd.s, cmd.j) == (2, 1, 1)
    assert cmd.maxdeg is None


def test_parse_negative_positional():
    cmd = parse_command(["binom", "--family", "fib", "4", "-1"])
    assert cmd.k == -1


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_command(["binom", "--family", "fib", "4"])  # missing K
    with pytest.raises(ParseError):
        parse_command(["binom", "--family", "fib", "4", "2", "9"])
    with pytest.raises(ParseError):
        parse_command(["binom", "--family", "fib", "4", "2", "--bogus", "1"])
    with pytest.raises(ParseError):
        parse_command(["frobnicate"])
    with pytest.raises(ParseError):
        parse_command([])
    with pytest.raises(ParseError):
        parse_command(["verify", "nothing"])
    with pytest.raises(ParseError):
        parse_command(["binom", "--family", "martian", "4", "2"])
    with pytest.raises(ParseError):
        parse_command(["binom", "--family", "fib", "x", "2"])
    with pytest.raises(ParseError):
        parse_command(["matrix", "pascal", "--family", "gauss", "--size",
                       "2", "--format", "xml"])
    with pytest.raises(ParseError):
        parse_command(["binom", "--family"])  # flag without value


def test_parse_error_carries_position():
    try:
        parse_command(["binom", "--family", "fib", "four", "2"])
    except ParseError as err:
        assert err.position == 3
        assert err.expected == ("<integer>",)
    else:
        pytest.fail("expected ParseError")


def test_matrix_fermat_takes_no_x(capsys):
    argv = ["matrix", "fermat", "--family", "gauss@2", "--size", "2",
            "--x", "5", "--format", "csv"]
    with pytest.raises(ParseError) as err:
        parse_command(argv)
    assert err.value.position == 6
    assert str(err.value).startswith("unknown flag '--x'")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unknown flag '--x'")


# a pattern anchored with $ also matches before a final newline, which
# let 'classical\n' through to the custom-table reader and read '4\n' as 4
@pytest.mark.parametrize("argv, position, message", [
    (["binom", "--family", "classical\n", "4", "2"], 2,
     "bad family 'classical\\n'"),
    (["binom", "--family", "fib\n", "4", "2"], 2, "bad family 'fib\\n'"),
    (["binom", "--family", "fib", "4\n", "2"], 3,
     "bad integer '4\\n' for N"),
], ids=["family-classical", "family-fib", "int"])
def test_token_ending_in_newline_is_refused(argv, position, message,
                                            capsys):
    with pytest.raises(ParseError) as err:
        parse_command(argv)
    assert err.value.position == position
    assert str(err.value).startswith(message)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert "usage:" in captured.err


_PASCAL = ["matrix", "pascal", "--family", "classical", "--size", "2"]


@pytest.mark.parametrize("argv", [
    ["binom", "--family", "fib", "\u0664", "2"],
    ["binom", "--family", "gauss@ 2", "3", "1"],
    ["binom", "--family", "gauss@\u0662", "3", "1"],
    ["binom", "--family", "gauss@1_0", "3", "1"],
    _PASCAL + ["--x", "2\n", "--format", "csv"],
    _PASCAL + ["--x", "+1_0", "--format", "csv"],
], ids=["arabic-indic-int", "space-in-family", "arabic-indic-family",
        "underscore-in-family", "newline-rational", "plus-underscore"])
def test_tokens_are_ascii_only(argv, capsys):
    # int() reads all of these; the grammar promises ASCII digits
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad ")


def test_psifoc_trunc_is_ascii_only(monkeypatch):
    from psifoc import cli
    monkeypatch.setenv("PSIFOC_TRUNC", " 12\n")
    assert cli._default_trunc() == 12
    for raw in ("\u0664", "1_0", "+3"):
        monkeypatch.setenv("PSIFOC_TRUNC", raw)
        with pytest.raises(cli.PsifocError, match="must be an integer"):
            cli._default_trunc()


# the patterns the grammar states, as the oracle of the str-method matchers
# that stand in for them; '.' matches any character but a newline
_INT_PATTERN = re.compile(r"-?[0-9]+")
_FAMILY_PATTERN = re.compile(r"classical|gauss(@.+)?|fib|custom:.+")
_PINNED_TOKENS = ["\u0664", "\u00b2", "\uff11", "+5", "-", "--5", " 5", "5\n",
                  "gauss@", "gauss@2\n", "custom:", "", "-0", "0123",
                  "classical\n", "gauss@\n2", "gauss@\r", "custom:\n",
                  "custom:a\nb", "custom: ", "gauss", "fib", "fibs",
                  "Classical", "gauss@x"]
_token_text = st.one_of(
    st.text(max_size=8),
    st.text(alphabet="-+0123456789 \n\r/\u0664\u00b2\uff11", max_size=8),
    st.builds(lambda head, tail: head + tail,
              st.sampled_from(["", "classical", "gauss", "gauss@", "fib",
                               "custom:", "custom", "gaus", "-"]),
              st.text(alphabet="@:\n\r 1/-x", max_size=4)),
    st.from_regex(_INT_PATTERN, fullmatch=True),
    st.from_regex(_FAMILY_PATTERN, fullmatch=True))


def _is_rational(text):
    try:
        scalars.parse_rational(text)
    except ValueError:
        return False
    return True


def _check_matchers(text):
    # cli matches integers with the matcher of scalars
    assert scalars._is_integer(text) is bool(
        _INT_PATTERN.fullmatch(text)), text
    # parse_family accepts the full matches of the family pattern, the
    # rest of a gauss@ one being a rational; a full match whose rest is
    # not one is a bad rational, and any other text a bad family
    try:
        assert cli.parse_family(text, 0) == text
        refusal = None
    except ParseError as exc:
        refusal = str(exc)
    if not _FAMILY_PATTERN.fullmatch(text):
        assert str(refusal).startswith(f"bad family {text!r}"), text
    elif text.startswith("gauss@") and not _is_rational(text[6:]):
        assert str(refusal).startswith(
            f"bad rational in family {text!r}"), text
    else:
        assert refusal is None, text


def test_matchers_on_pinned_tokens():
    for text in _PINNED_TOKENS:
        _check_matchers(text)


@given(_token_text)
@settings(max_examples=400, deadline=None)
def test_matchers_accept_what_their_patterns_match(text):
    _check_matchers(text)


def test_run_binom():
    code, text = run_command(parse_command(
        ["binom", "--family", "fib", "4", "2"]))
    assert (code, text) == (0, "6")


def test_run_fact_and_falling():
    code, text = run_command(parse_command(["fact", "--family", "fib", "5"]))
    assert (code, text) == (0, "30")
    code, text = run_command(parse_command(
        ["falling", "--family", "gauss", "3", "3"]))
    assert code == 0
    assert text == "1 + 2*q + 2*q^2 + q^3"


def test_run_verify_cauchy_pass():
    code, text = run_command(parse_command(
        ["verify", "cauchy", "--family", "gauss",
         "--r", "3", "--s", "4", "--j", "5"]))
    assert (code, text) == (0, "PASS")


def test_run_verify_obs1_mismatch():
    code, text = run_command(parse_command(
        ["verify", "obs1", "--family", "fib", "--n", "3"]))
    assert code == 1
    payload = json.loads(text)
    assert payload["verdict"] == "fail"
    assert payload["mismatches"] == [
        {"monomial": "x^2*y^1", "lhs": "1", "rhs": "3"}]


def test_run_verify_fermat():
    code, text = run_command(parse_command(
        ["verify", "fermat", "--family", "fib", "--size", "4",
         "--maxdeg", "8"]))
    assert (code, text) == (0, "PASS")


def test_verify_fermat_negative_maxdeg_exits_two(capsys):
    argv = ["verify", "fermat", "--family", "classical", "--size", "3",
            "--maxdeg", "-1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: truncation degree must be nonnegative\n"


def test_run_oracle():
    code, text = run_command(parse_command(
        ["oracle", "subspaces", "--q", "2", "--n", "4", "--k", "2"]))
    assert (code, text) == (0, "35")


def test_run_expand():
    code, text = run_command(parse_command(
        ["expand", "--family", "fib", "--power", "2"]))
    assert code == 0
    assert json.loads(text) == [
        {"xdeg": 0, "ydeg": 2, "coeff": "1"},
        {"xdeg": 1, "ydeg": 1, "coeff": "1"},
        {"xdeg": 2, "ydeg": 0, "coeff": "1"}]


def test_run_matrix_csv_and_out(tmp_path):
    code, text = run_command(parse_command(
        ["matrix", "fermat", "--family", "classical", "--size", "2",
         "--format", "csv"]))
    assert (code, text) == (0, "1,1\n1,2")
    target = tmp_path / "out.csv"
    code, text = run_command(parse_command(
        ["matrix", "fermat", "--family", "classical", "--size", "2",
         "--format", "csv", "--out", str(target)]))
    assert code == 0
    assert target.read_text() == "1,1\n1,2\n"


def test_run_matrix_eigen_and_errors():
    code, text = run_command(parse_command(
        ["matrix", "fermat", "--family", "fib", "--size", "2",
         "--eigen", "4", "--format", "csv"]))
    assert (code, text) == (0, "1,1\n1,7/3")
    code, text = run_command(parse_command(
        ["matrix", "fermat", "--family", "fib", "--size", "2",
         "--format", "csv"]))
    assert code == 2
    assert "eigen" in text


def test_run_errors_exit_two():
    code, text = run_command(parse_command(
        ["oracle", "subspaces", "--q", "7", "--n", "2", "--k", "1"]))
    assert code == 2 and text.startswith("error:")
    code, text = run_command(parse_command(
        ["binom", "--family", "custom:/no/such/file", "2", "1"]))
    assert code == 2 and text.startswith("error:")


def test_custom_family_file(tmp_path):
    table = tmp_path / "family.txt"
    table.write_text("1\n1\n2\n3\n5\n")
    code, text = run_command(parse_command(
        ["binom", "--family", f"custom:{table}", "4", "2"]))
    assert (code, text) == (0, "6")
    bad = tmp_path / "bad.txt"
    bad.write_text("1\nbanana\n")
    code, text = run_command(parse_command(
        ["binom", "--family", f"custom:{bad}", "1", "1"]))
    assert code == 2


def test_custom_family_file_blank_line(tmp_path, capsys):
    # line n is the n-th family integer, so a blank line inside the table
    # is refused rather than skipped (skipping made 3_psi = 4 here)
    table = tmp_path / "family.txt"
    table.write_text("1\n\n3\n4\n")
    assert main(["binom", "--family", f"custom:{table}", "3", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {table}:2: blank line before the last value\n"
    # trailing blank lines end the table
    table.write_text("1\n2\n3\n\n\n")
    code, text = run_command(parse_command(
        ["binom", "--family", f"custom:{table}", "3", "1"]))
    assert (code, text) == (0, "3")


def test_env_default_truncation(monkeypatch):
    monkeypatch.setenv("PSIFOC_TRUNC", "2")
    code, _ = run_command(parse_command(
        ["verify", "cauchy", "--family", "fib", "--r", "2", "--s", "2",
         "--j", "2"]))
    assert code == 0
    monkeypatch.setenv("PSIFOC_TRUNC", "banana")
    code, text = run_command(parse_command(
        ["verify", "cauchy", "--family", "fib", "--r", "2", "--s", "2",
         "--j", "2"]))
    assert code == 2 and "PSIFOC_TRUNC" in text
    # a bad family file is reported first; verbs without a sweep never
    # read the variable
    code, text = run_command(parse_command(
        ["verify", "fermat", "--family", "custom:/nonexistent/table",
         "--size", "2"]))
    assert code == 2 and "cannot read family file" in text
    for argv in (["binom", "--family", "fib", "4", "2"],
                 ["verify", "obs1", "--family", "gauss", "--n", "2"],
                 ["matrix", "fermat", "--family", "fib", "--size", "2",
                  "--eigen", "1", "--format", "csv"]):
        assert run_command(parse_command(argv))[0] == 0, argv


def test_main_streams(capsys):
    assert main(["binom", "--family", "fib", "4", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "6\n"
    assert main(["nonsense"]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert main(["verify", "obs1", "--family", "fib", "--n", "3"]) == 1
    captured = capsys.readouterr()
    assert '"verdict": "fail"' in captured.out


_GRID = [
    ["binom", "--family", "fib", "6", "3"],
    ["binom", "--family", "gauss", "5", "2"],
    ["binom", "--family", "gauss@2", "4", "2"],
    ["binom", "--family", "classical", "9", "4"],
    ["fact", "--family", "gauss", "3"],
    ["falling", "--family", "fib", "5", "2"],
]


def test_cli_library_agreement():
    families = {"fib": fibonacci(), "gauss": psi.gauss(),
                "gauss@2": psi.gauss(2), "classical": psi.classical()}
    for argv in _GRID:
        code, text = run_command(parse_command(argv))
        assert code == 0
        fam = families[argv[2]]
        if argv[0] == "binom":
            value = psi_binomial(fam, int(argv[3]), int(argv[4]))
        elif argv[0] == "fact":
            value = psi_factorial(fam, int(argv[3]))
        else:
            value = psi_falling(fam, int(argv[3]), int(argv[4]))
        assert text == scalars.render(value)


def test_exit_code_contract():
    # verification commands exit 0 exactly when the report is clean
    passing = ["verify", "obs1", "--family", "gauss", "--n", "4"]
    failing = ["verify", "obs1", "--family", "fib", "--n", "3"]
    assert run_command(parse_command(passing))[0] == 0
    assert run_command(parse_command(failing))[0] == 1


def test_canonical_round_trip_grid():
    samples = _GRID + [
        ["verify", "cauchy", "--family", "gauss", "--r", "1", "--s", "2",
         "--j", "1", "--maxdeg", "4"],
        ["verify", "fermat", "--family", "fib", "--size", "3",
         "--maxdeg", "6"],
        ["verify", "obs1", "--family", "fib", "--n", "3"],
        ["matrix", "pascal", "--family", "gauss", "--size", "3",
         "--x", "2", "--format", "json"],
        ["matrix", "fermat", "--family", "fib", "--size", "2",
         "--eigen", "4", "--format", "csv", "--out", "somewhere.csv"],
        ["oracle", "subspaces", "--q", "3", "--n", "3", "--k", "2"],
        ["expand", "--family", "fib", "--power", "4", "--pretty"],
    ]
    for argv in samples:
        cmd = parse_command(argv)
        assert parse_command(cmd.canonical()) == cmd


_printable_token = st.text(alphabet=string.printable, min_size=0, max_size=24)


@given(st.lists(_printable_token, min_size=0, max_size=10))
@settings(max_examples=300, deadline=None)
def test_parser_totality_fuzz(argv):
    if sum(len(tok) for tok in argv) > 256:
        return
    try:
        cmd = parse_command(argv)
    except ParseError:
        return
    assert isinstance(cmd, Command)
    assert parse_command(cmd.canonical()) == cmd


@given(st.lists(st.sampled_from(
    ["binom", "verify", "cauchy", "--family", "fib", "gauss", "--r", "2",
     "-1", "--size", "matrix", "pascal", "--format", "csv", "--pretty",
     "oracle", "subspaces", "--q", "--n", "--k", "4", "x"]),
    min_size=0, max_size=8))
@settings(max_examples=300, deadline=None)
def test_parser_totality_near_grammar(argv):
    try:
        parse_command(argv)
    except ParseError:
        pass


@pytest.mark.parametrize("verb", ["binom", "falling"])
def test_unexpected_exception_exits_two(verb, capsys):
    # the index fits no machine-size tuple or list: OverflowError, refused
    # before any table grows
    for family in ("gauss", "fib", "gauss@2"):
        argv = [verb, "--family", family, "99999999999999999999", "1"]
        assert main(argv) == 2, family
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: OverflowError: ")
        assert captured.err.count("\n") == 1


# main under a 1 GiB address-space cap, so a table that grows without
# bound ends in MemoryError rather than exhausting the host
_CAPPED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from psifoc.cli import main
sys.exit(main(sys.argv[1:]))
"""


_HUGE = "99999999999999999999"


@pytest.mark.parametrize("argv", [
    ["verify", "cauchy", "--family", "gauss", "--r", _HUGE, "--s", "0",
     "--j", "1", "--maxdeg", "0"],
    ["binom", "--family", "gauss", _HUGE, "1"],
    # a degree or a size past sys.maxsize: no operator or matrix fits
    ["verify", "cauchy", "--family", "classical", "--r", "1", "--s", "1",
     "--j", "1", "--maxdeg", _HUGE],
    ["verify", "fermat", "--family", "gauss", "--size", "2",
     "--maxdeg", _HUGE],
    ["verify", "fermat", "--family", "classical", "--size", _HUGE,
     "--maxdeg", "0"],
    ["verify", "obs1", "--family", "fib", "--n", _HUGE],
    ["matrix", "fermat", "--family", "fib", "--eigen", _HUGE, "--size", "2",
     "--format", "csv"],
    ["matrix", "pascal", "--family", "gauss@2", "--eigen", _HUGE,
     "--size", "2", "--format", "csv"],
    ["matrix", "fermat", "--family", "classical", "--size", _HUGE,
     "--format", "json"],
    ["matrix", "pascal", "--family", "classical", "--size", _HUGE,
     "--format", "csv"],
    ["expand", "--family", "classical", "--power", _HUGE],
], ids=["cauchy", "binom", "cauchy-maxdeg", "fermat-maxdeg", "fermat-size",
        "obs1", "matrix-fermat-eigen", "matrix-pascal-eigen",
        "matrix-fermat-size", "matrix-pascal-size", "expand"])
def test_huge_symbolic_index_is_refused_before_any_table_grows(run_python,
                                                               argv):
    proc = run_python("-c", _CAPPED_MAIN, *argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: OverflowError: "), proc.stderr
    assert proc.stderr.count("\n") == 1


_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not _DIGIT_LIMIT, reason="no int digit limit")
def test_overlong_integer_argument_is_refused(capsys):
    argv = ["binom", "--family", "fib", "9" * (_DIGIT_LIMIT + 700), "1"]
    with pytest.raises(ParseError) as err:
        parse_command(argv)
    assert err.value.position == 3
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"error: integer for N has more than {_DIGIT_LIMIT} digits")


@pytest.mark.skipif(not _DIGIT_LIMIT, reason="no int digit limit")
def test_answer_longer_than_the_digit_limit(run_python, capsys):
    proc = run_python("-m", "psifoc.cli", "fact", "--family", "classical",
                      "2000")
    assert (proc.returncode, proc.stderr) == (0, "")
    sys.set_int_max_str_digits(0)
    try:
        expected = str(math.factorial(2000))
    finally:
        sys.set_int_max_str_digits(_DIGIT_LIMIT)
    assert len(expected) == 5736
    assert proc.stdout == expected + "\n"
    # in process, main and run_command lift the limit for the run and
    # restore it
    argv = ["fact", "--family", "classical", "2000"]
    assert main(argv) == 0
    assert capsys.readouterr().out == expected + "\n"
    assert sys.get_int_max_str_digits() == _DIGIT_LIMIT
    assert run_command(parse_command(argv)) == (0, expected)
    assert sys.get_int_max_str_digits() == _DIGIT_LIMIT


@pytest.mark.skipif(not _DIGIT_LIMIT, reason="no int digit limit")
def test_digit_limit_is_restored_after_an_error(monkeypatch):
    seen = []

    def failing_factorial(fam, n):
        seen.append(sys.get_int_max_str_digits())
        raise RuntimeError("boom")

    monkeypatch.setattr(psi, "psi_factorial", failing_factorial)
    assert run_command(parse_command(["fact", "--family", "fib", "3"])) == (
        2, "error: RuntimeError: boom")
    assert seen == [0]
    assert sys.get_int_max_str_digits() == _DIGIT_LIMIT


def test_verb_runs_on_an_interpreter_without_a_digit_limit(monkeypatch):
    # CPython 3.10.0-3.10.6 has no sys.set_int_max_str_digits, and the
    # verb runs as it is there
    monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
    assert run_command(parse_command(["fact", "--family", "fib", "5"])) == (
        0, "30")


@pytest.mark.skipif(not _DIGIT_LIMIT, reason="no int digit limit")
def test_overlong_custom_table_value_is_refused(tmp_path, capsys):
    table = tmp_path / "table.txt"
    table.write_text("9" * (_DIGIT_LIMIT + 700) + "\n")
    argv = ["fact", "--family", f"custom:{table}", "1"]
    code, text = run_command(parse_command(argv))
    assert code == 2
    assert text.startswith(f"error: {table}:1: not a rational: ")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", text + "\n")
    assert sys.get_int_max_str_digits() == _DIGIT_LIMIT


@pytest.mark.skipif(not _DIGIT_LIMIT, reason="no int digit limit")
def test_overlong_psifoc_trunc_is_refused(monkeypatch, capsys):
    from psifoc import cli
    monkeypatch.setenv("PSIFOC_TRUNC", "1" + "0" * (_DIGIT_LIMIT + 700))
    argv = ["verify", "cauchy", "--family", "fib", "--r", "1", "--s", "1",
            "--j", "1"]
    refusal = f"error: PSIFOC_TRUNC has more than {_DIGIT_LIMIT} digits"
    assert run_command(parse_command(argv)) == (2, refusal)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", refusal + "\n")
    assert sys.get_int_max_str_digits() == _DIGIT_LIMIT
    # a value of exactly the limit's length is accepted
    monkeypatch.setenv("PSIFOC_TRUNC", "1" + "0" * (_DIGIT_LIMIT - 1))
    assert cli._default_trunc() == 10 ** (_DIGIT_LIMIT - 1)
