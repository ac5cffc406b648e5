"""The output corpus: a short digest of psifoc's output for every distinct
op of the benchmark's op streams, and for a grid of calls that return
scalars, operators and matrices, kept in ``tests/corpus.txt``.

Most benchmark ops return a verdict, or text in which an integral
``Fraction`` and an int read alike; the grid returns the values
themselves, so a canonical form that changes type changes a line.

Each line of the corpus is one op as a Python literal, then the first 16
hex digits of the SHA-256 of its output.  A library op ``(kind,
params)`` hashes the type and ``repr`` of its return value, element by
element through lists and tuples, or the type, message and
``degree`` of the exception it raises.  A CLI op ``("cli", argv)`` runs
``psifoc.cli.main`` in process and hashes its exit code, stdout, stderr
and ``--out`` text, with the output path masked as ``OUT``.
``tests/test_corpus.py`` runs the stored ops through :func:`digest` in
several orders and cache states; it does not import ``bench/``.

The corpus guards against regressions; it is not an oracle.  It cannot
tell a right answer from a wrong one: ``bench/reference.py`` and the
verifiers do that.  Update rule: a change that moves an output on purpose
regenerates the file and lists in ``CHANGES.md`` each op whose line
moved, and why.  A regeneration without that list loosens the check.

To regenerate, from the repository root (this reads ``bench/ops.py``)::

    PYTHONPATH=src python tests/corpus.py --write
"""

from __future__ import annotations

import ast
import hashlib
import io
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from psifoc import cli, matrices, psi, qhat, qplane, ratfunc

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, "corpus.txt")
# the token of a CLI argv that stands for the --out path
OUT = "OUT"

Q = ratfunc.Q
FAMILIES = {"classical": psi.classical(), "fib": psi.fibonacci(),
            "gauss": psi.gauss(), "gauss@2": psi.gauss(2),
            "gauss@1/2": psi.gauss(Fraction(1, 2)),
            "gauss@-1": psi.gauss(-1),
            "custom": psi.custom([Fraction(1, 2), 2, -1, Fraction(3, 2), 4,
                                  Fraction(5, 4), 3]),
            "custom@q": psi.custom([ratfunc.RatFunc.one(), 1 + Q, 2 * Q,
                                    Q / (1 + Q), 1 + Q * Q, Q, 3 + Q])}
# deformation parameters of every field tag, integral Fractions among them
PARAMS = {"2": 2, "2/1": Fraction(2), "1/2": Fraction(1, 2), "-1": -1,
          "-1/1": Fraction(-1), "0": 0, "q": Q,
          "q:-1": ratfunc.RatFunc.constant(-1), "q/(1+q)": Q / (1 + Q)}

# each library kind of the benchmark, as the library call it makes
KINDS = {
    "fermat": lambda n: matrices.fermat_factorization_mismatches(
        n, matrices.ScalarMode(Q)),
    "psi_row": lambda n: [psi.psi_binomial(FAMILIES["gauss"], n, k)
                          for k in range(n + 1)],
    "binomial_theorem": qplane.verify_gauss_binomial_theorem,
    "realization": lambda t, n: qplane.realization_check(
        Q if t == "q" else t, n),
    "cauchy_scalar": lambda r, s, j: qplane.verify_cauchy_scalar(r, s, j, Q),
    "cauchy_operator": lambda fam, *p: qplane.verify_cauchy_operator(
        FAMILIES[fam], *p),
    "fermat_eigen": lambda fam, m, size:
        matrices.fermat_factorization_mismatches(
            size, matrices.EigenMode(FAMILIES[fam], m)),
    "obs1": lambda n: qplane.explore_observation1_general(
        FAMILIES["fib"], n),
    "subspaces": matrices.count_subspaces,
    # the grid of scalar_ops
    "geometric_sum": lambda t, n: psi.geometric_sum(PARAMS[t], n),
    "gauss_binomial": lambda n, k, t: psi.gauss_binomial(n, k, PARAMS[t]),
    "binomial_eigenvalue": lambda n, k, t: qhat.binomial_eigenvalue(
        n, k, PARAMS[t]),
    "family": lambda fn, fam, *args: getattr(psi, fn)(FAMILIES[fam], *args),
    "operator": lambda fn, fam, trunc, *args: getattr(qhat, fn)(
        *args, qhat.qhat_operator(FAMILIES[fam], trunc)).eigenvalues,
    "dilation": lambda t, trunc, power: (
        qhat.dilation_operator(PARAMS[t], trunc) ** power).eigenvalues,
    "pascal": lambda x0, t, size: matrices.pascal_matrix(
        PARAMS[x0], size, matrices.ScalarMode(PARAMS[t])).data,
    "fermat_matrix": lambda t, size: matrices.fermat_matrix(
        size, matrices.ScalarMode(PARAMS[t])).data,
}


def _typed(value) -> str:
    if isinstance(value, (list, tuple)):
        body = ", ".join(map(_typed, value))
        return f"{type(value).__qualname__}[{body}]"
    return f"{type(value).__qualname__}:{value!r}"


def _library_text(kind: str, params: tuple) -> str:
    try:
        out = KINDS[kind](*params)
    except Exception as exc:
        degree = getattr(exc, "degree", None)
        return f"raise {type(exc).__qualname__}: {exc} degree={degree}"
    return _typed(out)


def _cli_text(argv: tuple, out_path: str) -> str:
    if os.path.exists(out_path):
        os.remove(out_path)
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli.main([out_path if a == OUT else a for a in argv])
    text = ""
    if OUT in argv and os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as handle:
            text = handle.read()
    streams = (s.getvalue().replace(out_path, OUT) for s in (stdout, stderr))
    return "\0".join((f"exit {code}", *streams, text))


def digest(op: tuple, out_path: str) -> str:
    """The corpus digest of one op's output; out_path is the file a CLI
    op's --out writes."""
    kind, params = op
    text = (_cli_text(params, out_path) if kind == "cli"
            else _library_text(kind, params))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load(path: str = CORPUS) -> list[tuple[tuple, str]]:
    """The (op, digest) pairs of the corpus, in listed order."""
    entries = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip() and not line.startswith("#"):
                op, value = line.rstrip("\n").rsplit(" ", 1)
                entries.append((ast.literal_eval(op), value))
    return entries


def bench_ops() -> list[tuple]:
    """The distinct ops of symbolic seeds 1-5, rational-sweep seed 1 and
    cli seeds 1-40, in order of first appearance."""
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "bench"))
    import ops
    listed = [(kind, p) for seed in range(1, 6)
              for kind, p, _ in ops.symbolic_ops(seed)]
    listed += [(kind, p) for kind, p, _ in ops.sweep_ops(1)]
    listed += [("cli", p[0]) for seed in range(1, 41)
               for _, p, _ in ops.cli_ops(seed)]
    return list(dict.fromkeys(listed))


def scalar_ops() -> list[tuple]:
    """Public calls at every parameter of PARAMS and every family of
    FAMILIES, inside and just outside their index ranges."""
    ops = []
    for t in PARAMS:
        ops += [("geometric_sum", (t, n)) for n in range(6)]
        ops += [(kind, (n, k, t)) for kind in ("gauss_binomial",
                                               "binomial_eigenvalue")
                for n in range(6) for k in range(-1, n + 2)]
        ops += [("dilation", (t, 4, 2)), ("fermat_matrix", (t, 4))]
        ops += [("pascal", (x0, t, 4)) for x0 in ("2/1", "1/2")]
    for fam in FAMILIES:
        for n in range(6):
            ops += [("family", (fn, fam, n))
                    for fn in ("psi_int", "psi_factorial", "psi_weight")]
            ops += [("family", (fn, fam, n, k))
                    for fn in ("psi_falling", "psi_binomial")
                    for k in range(-1, n + 2)]
            ops += [("operator", ("op_integer", fam, 4, n)),
                    ("operator", ("op_factorial", fam, 4, n))]
            ops += [("operator", ("op_binomial", fam, 4, n, k))
                    for k in range(n + 1)]
    return ops


def write(path: str = CORPUS) -> int:
    """Regenerate the corpus from a cold memo store; the number of ops."""
    os.environ.pop("PSIFOC_TRUNC", None)
    psi._memo.clear()
    out_path = os.path.join(os.path.dirname(path), ".corpus-out.txt")
    lines = [f"{op!r} {digest(op, out_path)}\n"
             for op in bench_ops() + scalar_ops()]
    if os.path.exists(out_path):
        os.remove(out_path)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# op, then the first 16 hex digits of the SHA-256 of "
                     "its output; see tests/corpus.py\n")
        handle.writelines(lines)
    return len(lines)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/corpus.py --write")
    print(f"{write()} ops written to {CORPUS}")
