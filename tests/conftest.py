"""Shared fixtures."""

import os
import subprocess
import sys

import pytest

import psifoc
from psifoc import psi, qhat


@pytest.fixture
def run_python():
    """Run the interpreter on the given arguments in a fresh process that
    imports this psifoc, under the default int digit limit."""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(psifoc.__file__)))
    env.pop("PYTHONINTMAXSTRDIGITS", None)

    def run(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], env=env,
                              capture_output=True, text=True, timeout=120)
    return run


@pytest.fixture
def cold_tables():
    """Empty every per-parameter table, the Gauss quotient store and the
    binomial symbol cache before the test and after it; the fixture value
    clears them again."""
    def clear():
        for cached in (psi._table, qhat._binomial_eigenvalue):
            cached.cache_clear()
        psi._quotients.clear()
    clear()
    yield clear
    clear()
