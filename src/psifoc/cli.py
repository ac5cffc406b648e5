"""Command line front end.

Grammar::

    psifoc binom --family F N K
    psifoc fact --family F N
    psifoc falling --family F X K
    psifoc expand --family F --power N
    psifoc verify cauchy --family F --r R --s S --j J [--maxdeg M]
    psifoc verify fermat --family F --size N [--maxdeg M]
    psifoc verify obs1 --family F --n N
    psifoc matrix pascal --family F --size N [--x X] [--eigen M]
                  --format {csv|json} [--out PATH]
    psifoc matrix fermat --family F --size N [--eigen M]
                  --format {csv|json} [--out PATH]
    psifoc oracle subspaces --q Q --n N --k K

Families: ``classical`` | ``gauss`` | ``gauss@<rational>`` | ``fib`` |
``custom:<path>`` (one rational per line, line n holding the n-th family
integer).  An integer is ``-?[0-9]+`` and a rational ``p`` or ``p/q`` of
such integers.  ``--pretty`` anywhere pretty-prints JSON output.

Exit codes: 0 on success or a passing verification, 1 when a verification
reports mismatches (the JSON report goes to standard output), 2 on any
error.  The environment variable PSIFOC_TRUNC sets the default sweep
truncation degree (default 32).

Each verb loads only the layers it runs: ``binom``, ``fact`` and
``falling`` need :mod:`psifoc.psi` and :mod:`psifoc.scalars`, which this
module imports; ``expand`` and ``verify cauchy`` import
:mod:`psifoc.qplane` (with :mod:`psifoc.qhat`), ``verify fermat`` and
``verify obs1`` :mod:`psifoc.matrices` too, and ``matrix`` and
``oracle`` :mod:`psifoc.matrices` (with :mod:`psifoc.qhat`), when they
run.  Only a symbolic value loads :mod:`psifoc.ratfunc`, the
rational-function field: a verb over the symbolic ``gauss`` family does,
one over a rational family never does.  Of the standard library,
:mod:`json` loads only where JSON text is built: ``expand``,
``--format json`` and a failing report.  No psifoc module imports
:mod:`re`, :mod:`typing`, :mod:`contextlib`, :mod:`threading` or
:mod:`importlib` (:mod:`fractions` imports :mod:`re` itself): the
grammar's patterns are matched by str methods.

:func:`parse_family` alone decides which strings name a family.  A
parsed family name stays the string it was in the argv until
:func:`to_family` reads it, when the command runs; a custom table is
read then, one :func:`psifoc.scalars.parse_rational` value per line.
Every input is read before the command computes, under the
interpreter's limit on the digits of an int read from text: the argv,
the values of a custom table and PSIFOC_TRUNC.  The command then runs
with the limit lifted, so an answer may be longer.
"""

from __future__ import annotations

import os
import sys

from . import psi
from ._record import Frozen
from .errors import InvalidFamilyFile, ParseError, PsifocError
from .scalars import Rational, Scalar, _is_integer, parse_rational, render

USAGE = """\
usage: psifoc <command> ...
commands:
  binom --family F N K           family binomial coefficient
  fact --family F N              family factorial
  falling --family F X K         family falling factorial
  expand --family F --power N    convolution power of x + y (JSON terms)
  verify cauchy --family F --r R --s S --j J [--maxdeg M]
  verify fermat --family F --size N [--maxdeg M]
  verify obs1 --family F --n N
  matrix pascal --family F --size N [--x X] [--eigen M] --format {csv|json} [--out PATH]
  matrix fermat --family F --size N [--eigen M] --format {csv|json} [--out PATH]
  oracle subspaces --q Q --n N --k K
families: classical | gauss | gauss@<rational> | fib | custom:<path>
global flags: --pretty\
"""


def to_family(text: str) -> psi.PsiFamily:
    """The family a name accepted by :func:`parse_family` denotes; a
    custom table is read from disk here, when the command runs."""
    if text == "classical":
        return psi.classical()
    if text == "fib":
        return psi.fibonacci()
    if text == "gauss":
        return psi.gauss()
    if text.startswith("gauss@"):
        return psi.gauss(parse_rational(text[6:]))
    path = text[len("custom:"):]
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line.strip() for line in handle]
    except OSError as exc:
        raise InvalidFamilyFile(f"cannot read family file {path}: {exc}")
    # line n holds n_psi: blank lines may only end the file
    while lines and not lines[-1]:
        lines.pop()
    values = []
    for lineno, line in enumerate(lines, start=1):
        if not line:
            raise InvalidFamilyFile(
                f"{path}:{lineno}: blank line before the last value")
        try:
            values.append(parse_rational(line))
        except ValueError:
            raise InvalidFamilyFile(
                f"{path}:{lineno}: not a rational: {line!r}")
    if not values:
        raise InvalidFamilyFile(f"{path}: empty family table")
    return psi.custom(values)


def parse_family(text: str, position: int) -> str:
    """text, if it names a family: ``classical``, ``gauss``, ``fib``, or
    ``gauss@`` or ``custom:`` and then at least one character and no
    newline, where what follows ``gauss@`` must be a rational; a
    ParseError otherwise."""
    if text in ("classical", "gauss", "fib"):
        return text
    gauss = text.startswith("gauss@")
    rest = (text[6:] if gauss else
            text[7:] if text.startswith("custom:") else "")
    if not rest or "\n" in rest:
        raise ParseError(f"bad family {text!r}", position,
                         ("classical", "gauss", "gauss@<rational>", "fib",
                          "custom:<path>"))
    if gauss:
        try:
            parse_rational(rest)
        except ValueError:
            raise ParseError(f"bad rational in family {text!r}", position,
                             ("gauss@<rational>",))
    return text


class Command(Frozen):
    """A parsed command; every instance round-trips through
    :meth:`canonical` and :func:`parse_command`.  The argv renders each
    value by ``str``, which on the parsed values, ints, normalized
    Fractions and the family, format and path strings, is
    :func:`psifoc.scalars.render`."""

    __slots__ = ("verb", "subverb", "family", "n", "k", "xval", "r", "s",
                 "j", "size", "maxdeg", "power", "eigen", "qfield", "x0",
                 "fmt", "out", "pretty")

    def __init__(self, verb: str, subverb: str | None = None,
                 family: str | None = None, n: int | None = None,
                 k: int | None = None, xval: int | None = None,
                 r: int | None = None, s: int | None = None,
                 j: int | None = None, size: int | None = None,
                 maxdeg: int | None = None, power: int | None = None,
                 eigen: int | None = None, qfield: int | None = None,
                 x0: Rational | None = None, fmt: str | None = None,
                 out: str | None = None, pretty: bool = False):
        self._assign(verb, subverb, family, n, k, xval, r, s, j, size,
                     maxdeg, power, eigen, qfield, x0, fmt, out, pretty)

    def canonical(self) -> list[str]:
        argv = [self.verb]
        if self.subverb is not None:
            argv.append(self.subverb)
        rule = _GRAMMAR[(self.verb, self.subverb)]
        for flag, (_kind, dest, _required) in rule["flags"].items():
            value = getattr(self, dest)
            if value is not None:
                argv += [flag, str(value)]
        argv += [str(getattr(self, dest))
                 for _kind, dest, _label in rule["positionals"]]
        if self.pretty:
            argv.append("--pretty")
        return argv


# per (verb, subverb): flag name -> (value kind, Command field, required)
_GRAMMAR: dict[tuple[str, str | None], dict] = {
    ("binom", None): {
        "flags": {"--family": ("family", "family", True)},
        "positionals": [("int", "n", "N"), ("int", "k", "K")],
    },
    ("fact", None): {
        "flags": {"--family": ("family", "family", True)},
        "positionals": [("int", "n", "N")],
    },
    ("falling", None): {
        "flags": {"--family": ("family", "family", True)},
        "positionals": [("int", "xval", "X"), ("int", "k", "K")],
    },
    ("expand", None): {
        "flags": {"--family": ("family", "family", True),
                  "--power": ("int", "power", True)},
        "positionals": [],
    },
    ("verify", "cauchy"): {
        "flags": {"--family": ("family", "family", True),
                  "--r": ("int", "r", True),
                  "--s": ("int", "s", True),
                  "--j": ("int", "j", True),
                  "--maxdeg": ("int", "maxdeg", False)},
        "positionals": [],
    },
    ("verify", "fermat"): {
        "flags": {"--family": ("family", "family", True),
                  "--size": ("int", "size", True),
                  "--maxdeg": ("int", "maxdeg", False)},
        "positionals": [],
    },
    ("verify", "obs1"): {
        "flags": {"--family": ("family", "family", True),
                  "--n": ("int", "n", True)},
        "positionals": [],
    },
    ("matrix", "pascal"): {
        "flags": {"--family": ("family", "family", True),
                  "--size": ("int", "size", True),
                  "--x": ("rational", "x0", False),
                  "--eigen": ("int", "eigen", False),
                  "--format": ("format", "fmt", True),
                  "--out": ("path", "out", False)},
        "positionals": [],
    },
    ("matrix", "fermat"): {
        "flags": {"--family": ("family", "family", True),
                  "--size": ("int", "size", True),
                  "--eigen": ("int", "eigen", False),
                  "--format": ("format", "fmt", True),
                  "--out": ("path", "out", False)},
        "positionals": [],
    },
    ("oracle", "subspaces"): {
        "flags": {"--q": ("int", "qfield", True),
                  "--n": ("int", "n", True),
                  "--k": ("int", "k", True)},
        "positionals": [],
    },
}

_VERBS = tuple(sorted({verb for verb, _ in _GRAMMAR}))
_SUBVERBS = {verb: tuple(sub for v, sub in _GRAMMAR if v == verb)
             for verb, sub in _GRAMMAR if sub is not None}


def _parse_value(kind: str, token: str, position: int, label: str):
    if kind == "int":
        if not _is_integer(token):
            raise ParseError(f"bad integer {token!r} for {label}", position,
                             ("<integer>",))
        try:
            return int(token)
        except ValueError:  # beyond the interpreter's digit limit
            raise ParseError(f"integer for {label} has more than "
                             f"{sys.get_int_max_str_digits()} digits",
                             position, ("<integer>",))
    if kind == "rational":
        try:
            return parse_rational(token)
        except ValueError:
            raise ParseError(f"bad rational {token!r} for {label}", position,
                             ("<rational>",))
    if kind == "family":
        return parse_family(token, position)
    if kind == "format":
        if token not in ("csv", "json"):
            raise ParseError(f"bad format {token!r}", position,
                             ("csv", "json"))
        return token
    return token  # path


def parse_command(argv: list[str]) -> Command:
    """Parse an argv list into a Command, or raise ParseError.

    Total on arbitrary token lists: anything outside the grammar becomes a
    ParseError carrying the offending position and the expected tokens.
    """
    tokens = list(argv)
    if not tokens:
        raise ParseError("missing command", 0, _VERBS)
    verb = tokens[0]
    if verb not in _VERBS:
        raise ParseError(f"unknown command {verb!r}", 0, _VERBS)
    pos = 1
    subverb = None
    if verb in _SUBVERBS:
        if pos >= len(tokens):
            raise ParseError(f"{verb} needs a subcommand", pos,
                             _SUBVERBS[verb])
        subverb = tokens[pos]
        if subverb not in _SUBVERBS[verb]:
            raise ParseError(f"unknown {verb} subcommand {subverb!r}", pos,
                             _SUBVERBS[verb])
        pos += 1
    rule = _GRAMMAR[(verb, subverb)]
    flags = rule["flags"]
    positionals = rule["positionals"]
    values: dict[str, object] = {}
    filled = 0
    while pos < len(tokens):
        token = tokens[pos]
        if token == "--pretty":
            values["pretty"] = True
            pos += 1
            continue
        if token in flags:
            kind, dest, _required = flags[token]
            if pos + 1 >= len(tokens):
                raise ParseError(f"flag {token} needs a value", pos,
                                 (f"<{kind}>",))
            values[dest] = _parse_value(kind, tokens[pos + 1], pos + 1,
                                        token)
            pos += 2
            continue
        if token.startswith("--"):
            raise ParseError(f"unknown flag {token!r}", pos,
                             tuple(sorted(flags)) + ("--pretty",))
        if filled < len(positionals):
            kind, dest, label = positionals[filled]
            values[dest] = _parse_value(kind, token, pos, label)
            filled += 1
            pos += 1
            continue
        raise ParseError(f"unexpected argument {token!r}", pos)
    missing = [name for name, (_k, dest, required) in flags.items()
               if required and dest not in values]
    if missing:
        raise ParseError(f"missing required {', '.join(sorted(missing))}",
                         len(tokens), tuple(sorted(missing)))
    if filled < len(positionals):
        labels = [label for _k, _d, label in positionals[filled:]]
        raise ParseError(f"missing argument {labels[0]}", len(tokens),
                         tuple(labels))
    return Command(verb=verb, subverb=subverb, **values)


def _digit_limit_lifted(run, *args):
    """run(*args) with the interpreter's limit on the digits of an int
    converted to or from text lifted, so that long answers render; the
    limit is restored on the way out."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return run(*args)
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return run(*args)
    finally:
        sys.set_int_max_str_digits(saved)


def _default_trunc() -> int:
    raw = os.environ.get("PSIFOC_TRUNC", "32")
    if not _is_integer(raw.strip()):
        raise PsifocError(f"PSIFOC_TRUNC must be an integer, got {raw!r}")
    try:
        value = int(raw)
    except ValueError:  # beyond the digit limit
        raise PsifocError(f"PSIFOC_TRUNC has more than "
                          f"{sys.get_int_max_str_digits()} digits")
    if value < 0:
        raise PsifocError("PSIFOC_TRUNC must be nonnegative")
    return value


def _deformation_of(fam: psi.PsiFamily) -> Scalar:
    if fam.kind == "classical":
        return 1
    if fam.kind == "gauss":
        if fam.q0 is not None:
            return fam.q0
        from .ratfunc import Q
        return Q
    raise PsifocError(
        f"family {fam.label} has no single deformation parameter; "
        f"pass --eigen M to pick a monomial degree")


def _run_matrix(cmd: Command, fam: psi.PsiFamily) -> tuple[int, str]:
    from . import matrices
    if cmd.eigen is not None:
        mode = matrices.EigenMode(fam, cmd.eigen)
    else:
        mode = matrices.ScalarMode(_deformation_of(fam))
    if cmd.subverb == "pascal":
        x0 = 1 if cmd.x0 is None else cmd.x0
        matrix = matrices.pascal_matrix(x0, cmd.size, mode)
    else:
        matrix = matrices.fermat_matrix(cmd.size, mode)
    text = matrices.export_matrix(matrix, cmd.fmt, cmd.pretty)
    if cmd.out is not None:
        with open(cmd.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        return 0, cmd.out
    return 0, text.rstrip("\n")


def _run_verify(cmd: Command, fam: psi.PsiFamily,
                maxdeg: int | None) -> tuple[int, str]:
    from . import qplane
    if cmd.subverb == "obs1":
        report = qplane.explore_observation1_general(fam, cmd.n)
    elif cmd.subverb == "cauchy":
        report = qplane.verify_cauchy_operator(fam, cmd.r, cmd.s, cmd.j,
                                               maxdeg)
    else:
        report = qplane.verify_fermat_operator(fam, cmd.size, maxdeg)
    if report.passed:
        return 0, "PASS"
    return 1, report.to_json(cmd.pretty)


def _run_verb(cmd: Command, fam: psi.PsiFamily | None,
              maxdeg: int | None) -> tuple[int, str]:
    if cmd.verb == "binom":
        return 0, render(psi.psi_binomial(fam, cmd.n, cmd.k))
    if cmd.verb == "fact":
        return 0, render(psi.psi_factorial(fam, cmd.n))
    if cmd.verb == "falling":
        return 0, render(psi.psi_falling(fam, cmd.xval, cmd.k))
    if cmd.verb == "expand":
        import json
        from . import qplane
        terms = qplane.psi_plus_power(fam, cmd.power).to_json_terms()
        return 0, json.dumps(terms, indent=2 if cmd.pretty else None)
    if cmd.verb == "verify":
        return _run_verify(cmd, fam, maxdeg)
    if cmd.verb == "matrix":
        return _run_matrix(cmd, fam)
    # parse_command admits the verbs of _VERBS only, and oracle is the last
    from . import matrices
    return 0, str(matrices.count_subspaces(cmd.qfield, cmd.n, cmd.k))


def run_command(cmd: Command) -> tuple[int, str]:
    """Execute a parsed command; returns (exit code, output text).

    The inputs read here, a custom family table and PSIFOC_TRUNC, are read
    first, under the interpreter's digit limit; the verb then runs with
    the limit lifted, so that long answers render.
    """
    try:
        fam = None if cmd.family is None else to_family(cmd.family)
        maxdeg = cmd.maxdeg
        if maxdeg is None and cmd.verb == "verify" and cmd.subverb != "obs1":
            maxdeg = _default_trunc()
        return _digit_limit_lifted(_run_verb, cmd, fam, maxdeg)
    except (PsifocError, ValueError, OSError) as exc:
        return 2, f"error: {exc}"
    except Exception as exc:
        # exit 1 is reserved for mismatches; any other failure is an error
        return 2, f"error: {type(exc).__name__}: {exc}"


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    try:
        cmd = parse_command(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(USAGE, file=sys.stderr)
        return 2
    code, text = run_command(cmd)
    if text:
        print(text, file=sys.stderr if code == 2 else sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
