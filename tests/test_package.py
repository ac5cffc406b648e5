"""The package root exports and what importing them loads."""

import ast
import importlib
import pathlib
import types

import pytest

import psifoc
from psifoc import scalars


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(psifoc.__all__)) == len(psifoc.__all__)
    for name in psifoc.__all__:
        assert not isinstance(getattr(psifoc, name), types.ModuleType), name


def test_each_export_is_its_home_modules_object():
    for name in psifoc.__all__:
        obj = getattr(psifoc, name)
        home = getattr(obj, "__module__", None)
        if home is not None and home.startswith("psifoc."):
            assert getattr(importlib.import_module(home), name) is obj, name
            assert f"psifoc.{psifoc._HOME[name]}" == home, name
    # the union aliases carry no home module of their own
    assert psifoc.Scalar is scalars.Scalar
    assert (psifoc.EvalMode
            is importlib.import_module("psifoc.matrices").EvalMode)
    assert set(psifoc.__all__) <= set(dir(psifoc))


def test_removed_names_stay_gone():
    # the multiplicativity check reports through Report, and the Fermat
    # factorization through its mismatch list
    for name in ("MultiplicativityCheck", "verify_fermat_factorization"):
        assert name not in psifoc.__all__
        with pytest.raises(AttributeError):
            getattr(psifoc, name)
    # the realization check composes monomial maps, no code calls the
    # constant operators, the matrix predicates or the matrix constructors
    # identity and scale, psi keeps one memo store, _memo, the matrices
    # compute densely without a row builder, scalars normalizes
    # coefficients with normalize and subtracts by adding the negative, and
    # psi divides binomials by the Gauss quotient or the factorial quotient;
    # the subspace oracle eliminates with _rref alone
    for module, name in (("qhat", "mutator_vanishes"),
                         ("qhat", "identity_like"),
                         ("qplane", "_unit_row"), ("psi", "_table"),
                         ("psi", "_quotients"), ("matrices", "_row"),
                         ("scalars", "_norm_coeff"), ("scalars", "_psub"),
                         ("ratfunc", "_norm_coeff"), ("ratfunc", "_psub"),
                         ("psi", "interleaved_quotient"),
                         ("matrices", "_reduce_vector")):
        assert not hasattr(importlib.import_module(f"psifoc.{module}"),
                           name), name
    # qhat imports scalars.zero_like by name; its own zero_like went
    qhat = importlib.import_module("psifoc.qhat")
    assert getattr(qhat, "zero_like", None) in (None, scalars.zero_like)
    for name in ("is_zero", "transpose", "identity", "scale"):
        assert not hasattr(psifoc.ScalarMatrix, name), name
    # DiagOperator + and * check the shapes in their shared _zip
    assert not hasattr(psifoc.DiagOperator, "_check_shape")


def test_star_import():
    namespace: dict = {}
    exec("from psifoc import *", namespace)
    assert set(psifoc.__all__) <= set(namespace)
    assert namespace["gauss_binomial"] is psifoc.gauss_binomial


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        psifoc.no_such_name


# Each verb form with its exit code, the psifoc layers it loads beyond
# cli, psi, scalars, errors and _record, whether it loads ratfunc: only
# where a symbolic value exists (the symbolic gauss family), and whether it
# loads json: only where JSON text is built (expand, --format json, a
# failing report).
_FAMILY = ["--family", "fib"]
_VERB_FORMS = [
    (["binom", *_FAMILY, "5", "2"], 0, set(), False, False),
    (["binom", *_FAMILY, "5", "2", "--pretty"], 0, set(), False, False),
    (["binom", "--family", "gauss@2", "5", "2"], 0, set(), False, False),
    (["binom", "--family", "nope", "5", "2"], 2, set(), False, False),
    (["fact", "--family", "gauss", "4"], 0, set(), True, False),
    (["falling", "--family", "classical", "5", "2"], 0, set(), False, False),
    (["expand", *_FAMILY, "--power", "3"], 0, {"qhat", "qplane"}, False,
     True),
    (["expand", *_FAMILY, "--power", "3", "--pretty"], 0,
     {"qhat", "qplane"}, False, True),
    (["verify", "cauchy", *_FAMILY, "--r", "2", "--s", "2", "--j", "1",
      "--maxdeg", "4"], 0, {"qhat", "qplane"}, False, False),
    (["verify", "cauchy", *_FAMILY, "--r", "2", "--s", "2", "--j", "1",
      "--maxdeg", "4", "--pretty"], 0, {"qhat", "qplane"}, False, False),
    (["verify", "fermat", *_FAMILY, "--size", "3", "--maxdeg", "4"],
     0, {"qhat", "qplane", "matrices"}, False, False),
    (["verify", "fermat", "--family", "gauss@2", "--size", "3", "--maxdeg",
      "4"], 0, {"qhat", "qplane", "matrices"}, False, False),
    (["verify", "obs1", "--family", "classical", "--n", "3"],
     0, {"qhat", "qplane", "matrices"}, False, False),
    (["verify", "obs1", *_FAMILY, "--n", "3"],
     1, {"qhat", "qplane", "matrices"}, False, True),
    (["matrix", "pascal", "--family", "gauss", "--size", "3", "--format",
      "csv"], 0, {"qhat", "matrices"}, True, False),
    (["matrix", "pascal", "--family", "gauss@2", "--size", "3", "--format",
      "csv"], 0, {"qhat", "matrices"}, False, False),
    (["matrix", "fermat", *_FAMILY, "--size", "3", "--eigen", "2",
      "--format", "csv", "--pretty"], 0, {"qhat", "matrices"}, False, False),
    (["matrix", "pascal", "--family", "gauss", "--size", "3", "--format",
      "json"], 0, {"qhat", "matrices"}, True, True),
    (["matrix", "fermat", *_FAMILY, "--size", "3", "--eigen", "2",
      "--format", "json", "--pretty"], 0, {"qhat", "matrices"}, False, True),
    (["oracle", "subspaces", "--q", "2", "--n", "3", "--k", "1"],
     0, {"qhat", "matrices"}, False, False),
]
_CLI_LAYERS = {"psifoc", "psifoc.cli", "psifoc.psi", "psifoc.scalars",
               "psifoc.errors", "psifoc._record"}
# stdlib modules a clean interpreter does not hold and no verb needs
_START_PATH_FREE = {"re", "typing", "contextlib", "threading", "importlib",
                    "warnings", "json", "dataclasses", "inspect"}

_LOADED_BY = """
import sys
start = set(sys.modules)
{}
print(sorted(set(sys.modules) - start))
"""


def _loaded_by(run_python, code: str) -> tuple[set[str], list[str]]:
    """The modules a fresh interpreter without site loads to run code, and
    the lines it printed before them; -S, so that no .pth file preloads
    what the code would load."""
    proc = run_python("-S", "-c", _LOADED_BY.format(code))
    assert proc.returncode == 0, proc.stderr
    *printed, loaded = proc.stdout.splitlines()
    return set(ast.literal_eval(loaded)), printed


def test_import_graph(run_python):
    # fractions, which scalars builds on, imports re itself
    needed, _ = _loaded_by(run_python, "import fractions")
    free = _START_PATH_FREE - needed
    root, _ = _loaded_by(run_python, "import psifoc")
    assert root == {"psifoc"}
    cli, _ = _loaded_by(run_python, "import psifoc.cli")
    assert {name for name in cli if name.startswith("psifoc")} == _CLI_LAYERS
    assert not cli & free, cli & free
    wrong = []
    for argv, code, layers, ratfunc, json in _VERB_FORMS:
        run = f"import psifoc.cli\nprint(psifoc.cli.main({argv!r}))"
        loaded, printed = _loaded_by(run_python, run)
        assert printed[-1] == str(code), (argv, printed)
        psifoc = {name for name in loaded if name.startswith("psifoc")}
        expected = _CLI_LAYERS | {f"psifoc.{layer}" for layer in layers}
        if ratfunc:
            expected.add("psifoc.ratfunc")
        stdlib = loaded & free
        if (psifoc, stdlib) != (expected, {"json"} if json else set()):
            wrong.append((argv, sorted(psifoc ^ expected), sorted(stdlib)))
    assert wrong == []


def test_no_module_imports_what_the_start_path_leaves_out():
    # fractions imports re, so the rows above cannot see a psifoc module
    # import it; the syntax trees can
    importers = set()
    for path in pathlib.Path(psifoc.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = {node.module.split(".")[0]}
            else:
                continue
            if names & {"re", "typing", "contextlib", "threading",
                        "importlib"}:
                importers.add(path.stem)
    assert importers == set()


_GEOMETRIC_SUM = """
import sys
start = set(sys.modules)
import psifoc
psifoc.geometric_sum
print(sorted(set(sys.modules) - start))
"""


def test_an_export_loads_its_home_module_only(run_python):
    proc = run_python("-c", _GEOMETRIC_SUM)
    assert proc.returncode == 0, proc.stderr
    loaded = set(ast.literal_eval(proc.stdout))
    assert "psifoc.psi" in loaded
    assert not {"json", "psifoc.qhat"} & loaded, loaded


_MEMO_DECORATORS = {"lru_cache", "cache", "cached_property"}


def test_no_module_keeps_a_functools_cache():
    # every memo store is an entry of psi._memo, which cold_tables clears;
    # a functools cache would keep warm values across it
    users = set()
    for path in pathlib.Path(psifoc.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = {alias.name for alias in node.names}
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "functools"):
                names = {node.attr}
            else:
                continue
            if names & _MEMO_DECORATORS:
                users.add(path.stem)
    assert users == set()


def _top_imports(tree: ast.Module) -> set[str]:
    """The dotted names that the import statements of a module's body
    name, at any depth outside a function: ``from .a import b`` names
    ``a`` and ``a.b``."""
    names: set[str] = set()
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names.add(base)
            names.update(f"{base}.{alias.name}".lstrip(".")
                         for alias in node.names)
        pending.extend(ast.iter_child_nodes(node))
    return names


def _imports_ratfunc_at_top(source: str) -> bool:
    return any("ratfunc" in name.split(".")
               for name in _top_imports(ast.parse(source)))


def test_no_module_imports_ratfunc_at_its_top():
    # a process loads the rational-function field only where a symbolic
    # value is about to exist, so every import of it is inside a function
    for source in ("from .ratfunc import RatFunc", "from . import ratfunc",
                   "import psifoc.ratfunc", "from psifoc import ratfunc",
                   "if x:\n    from .ratfunc import Q",
                   "if TYPE_CHECKING:\n    from .ratfunc import Scalar",
                   "class A:\n    from .ratfunc import Q",
                   "try:\n    import psifoc.ratfunc\nexcept E:\n    pass"):
        assert _imports_ratfunc_at_top(source), source
    for source in ("def f():\n    from .ratfunc import Q",
                   "from .scalars import Rational"):
        assert not _imports_ratfunc_at_top(source), source
    importers = {path.stem
                 for path in pathlib.Path(psifoc.__file__).parent.glob("*.py")
                 if _imports_ratfunc_at_top(path.read_text(encoding="utf-8"))}
    assert importers == set()


def _ratfunc_internals(tree: ast.AST) -> set[str]:
    """The parts of a rational function's representation, its private
    constructors and the private helpers of psifoc.ratfunc that a module's
    syntax tree names."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if node.attr in ("num", "den", "_hash", "_packed"):
                found.add(f".{node.attr}")
            owner = node.value
            name = (owner.id if isinstance(owner, ast.Name) else
                    owner.attr if isinstance(owner, ast.Attribute) else "")
            if name in ("ratfunc", "RatFunc") and node.attr.startswith("_"):
                found.add(f"{name}.{node.attr}")
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").split(".")[-1] == "ratfunc"):
            found.update(f"ratfunc.{alias.name}" for alias in node.names
                         if alias.name.startswith("_"))
    return found


def test_only_ratfunc_reads_the_coefficient_tuples():
    # the polynomial kernels work on the coefficient tuples of RatFunc;
    # every other module, scalars included, goes through ratfunc's public
    # functions, and only ratfunc wraps a tuple as a RatFunc without its
    # canonical form
    assert _ratfunc_internals(ast.parse(
        "from .ratfunc import _pmul\nimport psifoc.ratfunc\n"
        "f.num, g.den, ratfunc._padd, psifoc.ratfunc._trim\n"
        "RatFunc._raw((1, 1), (1,)), ratfunc.RatFunc._raw\n"
        "f._hash, g()._packed")) == {
        ".num", ".den", "ratfunc._pmul", "ratfunc._padd", "ratfunc._trim",
        "RatFunc._raw", "._hash", "._packed"}
    named = {path.stem: _ratfunc_internals(
                 ast.parse(path.read_text(encoding="utf-8")))
             for path in pathlib.Path(psifoc.__file__).parent.glob("*.py")
             if path.stem != "ratfunc"}
    assert "scalars" in named
    assert {stem: found for stem, found in named.items() if found} == {}
