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
    """Empty psi's memo store, every sequence table and Gauss quotient,
    before the test and after it; the fixture value empties it again."""
    psi._memo.clear()
    yield psi._memo.clear
    psi._memo.clear()


@pytest.fixture
def stored():
    """stored(step, t): the entries of step's sequence at t that psi's
    memo store holds, under its key (step, type(t), t)."""
    return lambda step, t: psi._memo[step, type(t), t]
