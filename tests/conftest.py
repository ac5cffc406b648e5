"""Shared fixtures."""

import os
import subprocess
import sys

import pytest

import psifoc
from psifoc import psi


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
    """Empty every per-parameter table and the Gauss quotient store before
    the test and after it; the fixture value clears them again."""
    def clear():
        psi._table.cache_clear()
        psi._quotients.clear()
    clear()
    yield clear
    clear()
