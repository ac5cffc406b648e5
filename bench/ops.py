"""The benchmark's operation streams, drawn from the workload seed.

Each workload turns a seed into a fixed list of ops.  An op is a plain
tuple of inputs; ``Library.runner`` hands those inputs to psifoc and
``check`` compares the output with :mod:`reference`.  Sizes that
dominate the cost form full grids, and seeded draws come in large
numbers, so two seeds give different inputs of about the same total
cost.

Work counts come from the inputs alone, so they repeat exactly for a
seed: ``identities`` is the number of equalities the library compares
(degrees, matrix entries, coefficients) and ``terms`` the number of
summands or factors behind them.
"""

from __future__ import annotations

import random
from fractions import Fraction

import reference as ref

WORKLOADS = ("symbolic", "rational-sweep", "cli")


def _k_range(r: int, s: int, j: int) -> range:
    return range(max(0, j - s), min(r, j) + 1)


def _fermat_terms(size: int) -> int:
    return sum(min(i, j) + 1 for i in range(size) for j in range(size))


def _basis(n: int) -> int:
    return (n + 1) * (n + 2) // 2


# ---------------------------------------------------------------------------
# Op lists.  An op is (kind, params, size) where size is the input size
# that the op's cost grows with (n, matrix size, maxdeg, q^n).
# ---------------------------------------------------------------------------

def symbolic_ops(seed: int) -> list[tuple]:
    """Every size of each heavy kind once, and a scalar Cauchy check for
    every (r, s) with r, s <= 10.  The seed picks j as (r+s)//3 or its
    mirror r+s-(r+s)//3, which use the same Gaussian binomial rows and
    have the same number of terms.  The kinds are interleaved in one
    fixed order, the same for every seed, with the sizes of a kind
    ascending as in a sweep over n: what an op costs depends on what ran
    before it in the cold session, so a seeded order would move the
    latency percentiles from seed to seed."""
    rng = random.Random(f"symbolic:{seed}")
    order = random.Random("symbolic-order")
    by_kind = [
        [("fermat", (n,), n) for n in range(4, 12)],
        [("psi_row", (n,), n) for n in range(8, 23)],
        [("binomial_theorem", (n,), n) for n in range(10, 25)],
        [("realization", ("q", n), n) for n in range(4, 11)],
    ]
    cauchy = [("cauchy_scalar",
               (r, s, rng.choice(((r + s) // 3, r + s - (r + s) // 3))),
               r + s) for r in range(11) for s in range(11)]
    order.shuffle(cauchy)
    by_kind.append(cauchy)
    slots = [i for i, kind in enumerate(by_kind) for _ in kind]
    order.shuffle(slots)
    queues = [iter(kind) for kind in by_kind]
    return [next(queues[i]) for i in slots]


SWEEP_FAMILIES = ("classical", "gauss@2", "gauss@1/2", "fib")


def sweep_ops(seed: int) -> list[tuple]:
    """Seeded operator Cauchy and eigenvalue Fermat checks, many enough
    that their total cost barely moves with the seed, plus fixed grids of
    ordered expansions, realizations and subspace counts."""
    rng = random.Random(f"rational-sweep:{seed}")
    ops = []
    for i in range(1200):
        fam = SWEEP_FAMILIES[i % 4]
        r, s = rng.randint(0, 8), rng.randint(0, 8)
        j = rng.randint(0, r + s)
        maxdeg = (8, 16, 24)[(i // 4) % 3]
        ops.append(("cauchy_operator", (fam, r, s, j, maxdeg), maxdeg))
    for i in range(160):
        fam = ("fib", "gauss@2")[i % 2]
        size = rng.randint(3, 8)
        ops.append(("fermat_eigen", (fam, rng.randint(0, 24), size), size))
    ops += [("obs1", (n,), n) for n in range(3, 21)]
    ops += [("realization", (2, n), n) for n in range(3, 11)] * 2
    # every subspace count up to GF(3)^3 and GF(2)^4, and the two
    # cheapest nontrivial ones of GF(3)^4 (k >= 3 there costs 0.2 s each)
    ops += [("subspaces", (q, n, k), q ** n) for q, top in ((2, 4), (3, 3))
            for n in range(1, top + 1) for k in range(1, n + 1)]
    ops += [("subspaces", (3, 4, k), 81) for k in (1, 2)]
    rng.shuffle(ops)
    return ops


def work_counts(ops: list[tuple]) -> dict:
    """Ops per kind, identities compared and terms, from the inputs."""
    kinds: dict[str, int] = {}
    identities = terms = 0
    for kind, p, _size in ops:
        kinds[kind] = kinds.get(kind, 0) + 1
        if kind in ("fermat", "fermat_eigen"):
            n = p[0] if kind == "fermat" else p[2]
            identities += n * n
            terms += _fermat_terms(n)
        elif kind == "psi_row":
            identities += p[0] + 1
            terms += p[0] * (p[0] + 1)
        elif kind == "binomial_theorem":  # (x + y)^m for every m <= n
            identities += _basis(p[0])
            terms += 2 * _basis(p[0])
        elif kind == "realization":  # entries of B A - t A B, each a sum
            identities += _basis(p[1] - 1) * _basis(p[1])
            terms += _basis(p[1] - 1) * _basis(p[1]) ** 2
        elif kind == "cauchy_scalar":
            identities += 1
            terms += len(_k_range(*p))
        elif kind == "cauchy_operator":
            _fam, r, s, j, maxdeg = p
            identities += maxdeg + 1
            terms += (maxdeg + 1) * len(_k_range(r, s, j))
        elif kind == "obs1":
            identities += p[0] + 1
            terms += p[0] * _basis(p[0])
        elif kind == "subspaces":  # every vector tried at each level
            identities += 1
            terms += p[2] * p[0] ** p[1]
        else:  # one CLI invocation: its stdout and exit code
            identities += 1
    return {"ops_per_kind": dict(sorted(kinds.items())),
            "identities": identities, "terms": terms}


# ---------------------------------------------------------------------------
# Running and checking library ops.
# ---------------------------------------------------------------------------

class Library:
    """psifoc's modules; attributes are looked up at call time so that
    the tracer's patches apply."""

    def __init__(self):
        import psifoc.cli
        from psifoc import matrices, psi, qplane, scalars
        self.cli, self.matrices, self.psi = psifoc.cli, matrices, psi
        self.qplane, self.scalars = qplane, scalars
        self.families = {"classical": psi.classical(), "fib": psi.fibonacci(),
                         "gauss": psi.gauss(),
                         "gauss@2": psi.gauss(2),
                         "gauss@1/2": psi.gauss(Fraction(1, 2))}

    def runner(self, op: tuple):
        """A no-argument callable doing exactly the op's library work."""
        kind, p, _size = op
        m, qp, Q = self.matrices, self.qplane, self.scalars.Q
        fam = self.families
        if kind == "fermat":
            return lambda: m.fermat_factorization_mismatches(
                p[0], m.ScalarMode(Q))
        if kind == "psi_row":
            g = fam["gauss"]
            return lambda: [self.psi.psi_binomial(g, p[0], k)
                            for k in range(p[0] + 1)]
        if kind == "binomial_theorem":
            return lambda: qp.verify_gauss_binomial_theorem(p[0])
        if kind == "realization":
            t = Q if p[0] == "q" else p[0]
            return lambda: qp.realization_check(t, p[1])
        if kind == "cauchy_scalar":
            return lambda: qp.verify_cauchy_scalar(p[0], p[1], p[2], Q)
        if kind == "cauchy_operator":
            f = fam[p[0]]
            return lambda: qp.verify_cauchy_operator(f, *p[1:])
        if kind == "fermat_eigen":
            mode = m.EigenMode(fam[p[0]], p[1])
            return lambda: m.fermat_factorization_mismatches(p[2], mode)
        if kind == "obs1":
            return lambda: qp.explore_observation1_general(fam["fib"], p[0])
        if kind == "subspaces":
            return lambda: m.count_subspaces(*p)
        raise ValueError(f"unknown op kind {kind!r}")


def check(op: tuple, out) -> str | None:
    """None when the output is right, else a one-line reason."""
    kind, p, _size = op
    if kind in ("fermat", "fermat_eigen"):
        return None if out == [] else f"{len(out)} factorization mismatches"
    if kind == "psi_row":
        n = p[0]
        if len(out) != n + 1:
            return f"row of length {len(out)}"
        for k, value in enumerate(out):
            text = str(value)
            for x in ref.EVAL_POINTS:
                if ref.eval_rendered(text, x) != ref.gauss_binom_at(n, k, x):
                    return f"({n} {k}) = {text} is wrong at q = {x}"
        return None
    if kind == "binomial_theorem":
        want = {"check": "binomial-theorem", "n_max": p[0]}
        ok = out.passed and out.mismatches == [] and out.params == want
        return None if ok else "binomial theorem report is not a pass"
    if kind == "realization" or kind == "cauchy_scalar":
        return None if out is True else f"verdict {out!r}, expected True"
    if kind == "cauchy_operator":
        fam, r, s, j, maxdeg = p
        want = {"check": "cauchy-operator", "family": fam, "r": r, "s": s,
                "j": j, "maxdeg": maxdeg}
        ok = out.passed and out.mismatches == [] and out.params == want
        return None if ok else "operator Cauchy report is not a pass"
    if kind == "obs1":
        n = p[0]
        want = ref.obs1_mismatches("fib", n)
        params = {"check": "ordered-expansion", "family": "fib", "n": n,
                  "trunc": n}
        if not want:
            return "reference expects a Fibonacci mismatch"
        ok = (out.mismatches == want and out.params == params
              and out.verdict == "fail")
        return None if ok else "ordered expansion mismatch table differs"
    if kind == "subspaces":
        want = ref.gauss_binom_at(p[1], p[2], p[0])
        return None if out == want else f"count {out}, expected {want}"
    return f"unknown op kind {kind!r}"


# ---------------------------------------------------------------------------
# CLI invocations.  Each carries the exit code, stdout and (for --out) the
# file text that the reference predicts.  OUT in an argv is replaced by a
# path inside the run's scratch directory.
# ---------------------------------------------------------------------------

CLI_FORMS = ("binom", "fact", "falling", "expand", "verify-cauchy",
             "verify-fermat", "verify-obs1", "matrix-pascal",
             "matrix-fermat", "oracle-subspaces")
GAUSS_POINTS = ("2", "3", "1/2", "-2", "2/3")
OUT = "OUT"


def _family(rng: random.Random) -> str:
    choice = rng.choice(("classical", "gauss", "gauss@", "fib"))
    return "gauss@" + rng.choice(GAUSS_POINTS) if choice == "gauss@" else choice


def _fam_int(fam: str, j: int):
    """j-th family integer: a rational, or a coefficient list for gauss."""
    if fam == "gauss":
        return [1] * j  # 1 + q + ... + q^(j-1)
    q = Fraction(fam[6:]) if fam.startswith("gauss@") else None
    return ref.family_int(fam, j, q)


def _product(fam: str, factors: list):
    if fam == "gauss":
        acc = [1]
        for f in factors:
            acc = ref.poly_mul(acc, f)
        return ref.render_poly(acc)
    acc = Fraction(1)
    for f in factors:
        acc *= f
    return ref.render(acc)


def _binom_text(fam: str, n: int, k: int) -> str:
    if fam == "gauss":
        return ref.render_poly(ref.gauss_binom_poly(n, k))
    if fam == "classical":
        return ref.render(ref.gauss_binom_at(n, k, 1))
    if fam == "fib":
        return ref.render(ref.fibonomial(n, k))
    return ref.render(ref.gauss_binom_at(n, k, Fraction(fam[6:])))


def _eigen(fam: str, m: int):
    """Mutator eigenvalue at degree m; None stands for the symbol q."""
    if fam == "gauss":
        return None
    q = Fraction(fam[6:]) if fam.startswith("gauss@") else None
    return ref.mutator_eigenvalue(fam, m, q)


def _entry_text(n: int, k: int, t, scale=Fraction(1)) -> str:
    """scale times the Gaussian binomial (n, k) at t (None: symbolic)."""
    if t is None:
        return ref.render_poly([scale * c
                                for c in ref.gauss_binom_poly(n, k)])
    return ref.render(scale * ref.binom_at_eigen(n, k, t))


def _matrix_op(rng: random.Random, which: str) -> tuple:
    fam = _family(rng)
    size = rng.randint(1, 5 if fam == "gauss" else 6)
    argv = ["matrix", which, "--family", fam, "--size", str(size)]
    x0 = Fraction(1)
    if which == "pascal" and rng.random() < 0.5:
        x0 = Fraction(rng.choice(("2", "-1", "1/2", "0")))
        argv += ["--x", ref.render(x0)]
    if fam == "fib" or rng.random() < 0.3:
        m = rng.randint(0, 12)
        argv += ["--eigen", str(m)]
        t = _eigen(fam, m)
    else:
        t = _eigen(fam, 1)
    fmt = rng.choice(("csv", "json"))
    argv += ["--format", fmt]
    pretty = fmt == "json" and rng.random() < 0.3
    if pretty:
        argv.append("--pretty")
    grid = []
    for i in range(size):
        if which == "pascal":
            grid.append([_entry_text(i, j, t, x0 ** (i - j)) if j <= i
                         else "0" for j in range(size)])
        else:
            grid.append([_entry_text(i + j, j, t) for j in range(size)])
    if fmt == "csv":
        text = "".join(",".join(row) + "\n" for row in grid)
    else:
        text = ref.dumps(grid, pretty)
    if rng.random() < 0.3:
        argv += ["--out", OUT]
        return argv, 0, OUT + "\n", text
    return argv, 0, text.rstrip("\n") + "\n", None


def _cli_op(rng: random.Random, form: str) -> tuple:
    """(argv, exit code, stdout, file text or None) for one form."""
    fam = _family(rng)
    small = 6 if fam == "gauss" else 10
    if form == "binom":
        n = rng.randint(0, small)
        k = rng.randint(-1, n + 1)
        return (["binom", "--family", fam, str(n), str(k)], 0,
                _binom_text(fam, n, k) + "\n", None)
    if form == "fact":
        n = rng.randint(0, small)
        text = _product(fam, [_fam_int(fam, j) for j in range(1, n + 1)])
        return ["fact", "--family", fam, str(n)], 0, text + "\n", None
    if form == "falling":
        x = rng.randint(0, small)
        k = rng.randint(0, x + 1)
        text = _product(fam, [_fam_int(fam, x - i) for i in range(k)])
        return (["falling", "--family", fam, str(x), str(k)], 0,
                text + "\n", None)
    if form == "expand":
        n = rng.randint(0, 6)
        pretty = rng.random() < 0.3
        terms = [{"xdeg": k, "ydeg": n - k, "coeff": _binom_text(fam, n, k)}
                 for k in range(n + 1)]
        argv = ["expand", "--family", fam, "--power", str(n)]
        return (argv + ["--pretty"] * pretty, 0,
                ref.dumps(terms, pretty) + "\n", None)
    if form == "verify-cauchy":
        r, s = rng.randint(0, 5), rng.randint(0, 5)
        argv = ["verify", "cauchy", "--family", fam, "--r", str(r),
                "--s", str(s), "--j", str(rng.randint(0, r + s + 1))]
        if fam == "gauss" or rng.random() < 0.7:
            argv += ["--maxdeg", str(rng.randint(2, 6 if fam == "gauss"
                                                 else 16))]
        return argv, 0, "PASS\n", None
    if form == "verify-fermat":
        argv = ["verify", "fermat", "--family", fam,
                "--size", str(rng.randint(1, 4 if fam == "gauss" else 6)),
                "--maxdeg", str(rng.randint(0, 4 if fam == "gauss" else 12))]
        return argv, 0, "PASS\n", None
    if form == "verify-obs1":
        n = rng.randint(0, 5 if fam == "gauss" else 9)
        pretty = rng.random() < 0.3
        argv = ["verify", "obs1", "--family", fam, "--n", str(n)]
        argv += ["--pretty"] * pretty
        if fam != "fib":
            return argv, 0, "PASS\n", None
        rows = ref.obs1_mismatches("fib", n)
        if not rows:
            return argv, 0, "PASS\n", None
        report = {"params": {"check": "ordered-expansion", "family": "fib",
                             "n": n, "trunc": n},
                  "verdict": "fail", "mismatches": rows}
        return argv, 1, ref.dumps(report, pretty) + "\n", None
    if form in ("matrix-pascal", "matrix-fermat"):
        return _matrix_op(rng, form[7:])
    q, n = rng.choice((2, 3)), rng.randint(1, 4)
    # k >= 3 in GF(3)^4 takes 0.2 s of enumeration; keep the CLI op light
    k = rng.randint(1, 2 if (q, n) == (3, 4) else n)
    count = ref.gauss_binom_at(n, k, q)
    return (["oracle", "subspaces", "--q", str(q), "--n", str(n),
             "--k", str(k)], 0, f"{ref.render(count)}\n", None)


# Inputs the CLI must refuse with exit 2 and nothing on stdout.
CLI_REFUSALS = (
    ["verify", "fermat", "--family", "gauss@-1", "--size", "3"],
    ["binom", "--family", "bogus", "4", "2"],
    ["oracle", "subspaces", "--q", "5", "--n", "2", "--k", "1"],
    ["matrix", "pascal", "--family", "fib", "--size", "3", "--format", "csv"],
    ["falling", "--family", "classical", "3", "5"],
    ["fact", "--family", "gauss@x", "3"],
)


def cli_ops(seed: int) -> list[tuple]:
    """Ops (form, (argv, code, stdout, file text), size)."""
    rng = random.Random(f"cli:{seed}")
    ops = []
    for i in range(50):
        form = CLI_FORMS[i % len(CLI_FORMS)]
        argv, code, out, text = _cli_op(rng, form)
        ops.append((form, (tuple(argv), code, out, text), len(argv)))
    for argv in rng.sample(CLI_REFUSALS, 4):
        ops.append(("refusal", (tuple(argv), 2, "", None), len(argv)))
    rng.shuffle(ops)
    return ops


def check_cli(op: tuple, code: int, stdout: str, file_text) -> str | None:
    _form, (argv, want_code, want_out, want_text), _size = op
    if code != want_code:
        return f"exit {code}, expected {want_code}: {' '.join(argv)}"
    if stdout != want_out:
        return f"stdout differs: {' '.join(argv)}"
    if want_text is not None and file_text != want_text:
        return f"--out file differs: {' '.join(argv)}"
    return None
