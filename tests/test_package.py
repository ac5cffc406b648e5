"""The package root exports and what importing them loads."""

import ast
import importlib
import pathlib
import types

import pytest

import psifoc


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
    # typing aliases carry no home module of their own
    assert psifoc.Scalar is importlib.import_module("psifoc.scalars").Scalar
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
                         ("qhat", "identity_like"), ("qhat", "zero_like"),
                         ("qplane", "_unit_row"), ("psi", "_table"),
                         ("psi", "_quotients"), ("matrices", "_row"),
                         ("scalars", "_norm_coeff"), ("scalars", "_psub"),
                         ("psi", "interleaved_quotient"),
                         ("matrices", "_reduce_vector")):
        assert not hasattr(importlib.import_module(f"psifoc.{module}"),
                           name), name
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


_NOT_FOR_BINOM = {"dataclasses", "inspect", "json", "psifoc.qhat",
                  "psifoc.qplane", "psifoc.matrices"}

_IMPORT_GRAPH = """
import sys
start = set(sys.modules)
import psifoc
root = set(sys.modules) - start
import psifoc.cli
cli = set(sys.modules) - start
psifoc.cli.main(["binom", "--family", "fib", "5", "2"])
binom = set(sys.modules) - start
print(sorted(root))
print(sorted(cli))
print(sorted(binom))
"""


def test_import_graph(run_python):
    # a diff of sys.modules, so whatever site preloads does not count
    proc = run_python("-c", _IMPORT_GRAPH)
    assert proc.returncode == 0, proc.stderr
    answer, root, cli, binom = proc.stdout.splitlines()
    assert answer == "15"
    root, cli, binom = (set(ast.literal_eval(line))
                        for line in (root, cli, binom))
    assert {name for name in root if name.startswith("psifoc")} == {"psifoc"}
    assert not cli & _NOT_FOR_BINOM, cli & _NOT_FOR_BINOM
    assert not binom & _NOT_FOR_BINOM, binom & _NOT_FOR_BINOM


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


def _scalars_internals(tree: ast.AST) -> set[str]:
    """The parts of a rational function's representation, its private
    constructors and the private helpers of psifoc.scalars that a module's
    syntax tree names."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if node.attr in ("num", "den", "_hash", "_packed"):
                found.add(f".{node.attr}")
            owner = node.value
            name = (owner.id if isinstance(owner, ast.Name) else
                    owner.attr if isinstance(owner, ast.Attribute) else "")
            if name in ("scalars", "RatFunc") and node.attr.startswith("_"):
                found.add(f"{name}.{node.attr}")
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").split(".")[-1] == "scalars"):
            found.update(f"scalars.{alias.name}" for alias in node.names
                         if alias.name.startswith("_"))
    return found


def test_only_scalars_reads_the_coefficient_tuples():
    # the polynomial kernels work on the coefficient tuples of RatFunc;
    # every other module goes through scalars' public functions, and only
    # scalars wraps a tuple as a RatFunc without its canonical form
    assert _scalars_internals(ast.parse(
        "from .scalars import _pmul\nimport psifoc.scalars\n"
        "f.num, g.den, scalars._padd, psifoc.scalars._trim\n"
        "RatFunc._raw((1, 1), (1,)), scalars.RatFunc._raw\n"
        "f._hash, g()._packed")) == {
        ".num", ".den", "scalars._pmul", "scalars._padd", "scalars._trim",
        "RatFunc._raw", "._hash", "._packed"}
    named = {path.stem: _scalars_internals(
                 ast.parse(path.read_text(encoding="utf-8")))
             for path in pathlib.Path(psifoc.__file__).parent.glob("*.py")
             if path.stem != "scalars"}
    assert {stem: found for stem, found in named.items() if found} == {}
