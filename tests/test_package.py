"""The package root exports and what importing them loads."""

import ast
import importlib
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
