"""The route table of the verifiers that sum the twisted Cauchy identity:
what each side of a check reaches, traced, and what two sides may share.

A row names a check, a runner that calls the verifier at a parameter t,
the parameters, its two side functions, and the functions and stores the
two sides may share, each with its reason.  While the verifier runs, a
side is everything below the outermost call of one of its side
functions: each function of src/psifoc called there, as
``module.function``, and each read and write of a store of ``psi._memo``,
as ``read store`` or ``write store``, the store named by
``key[0].__name__``.  The trace starts from an empty memo, so what a side
computes it also writes.  A call trace is not a data-flow trace: an
allowance says why a shared call feeds no value, or why the check shares
it on purpose, and the mutants of tests/test_matrices.py and
tests/test_qplane.py show the data flow.

The table covers the scalar and operator Cauchy checks, the Fermat hooks
and the quantum-plane binomial theorem.  Two verifiers check a law with a
single route and have no row, each for the reason SINGLE_ROUTE gives; the
others have no row yet.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from collections.abc import Callable, Iterable
from fractions import Fraction
from typing import NamedTuple

import psifoc
from psifoc import matrices, psi, qhat, qplane
from psifoc.ratfunc import Q

_SRC = os.path.dirname(psifoc.__file__) + os.sep

#: What any two sides may call in common: the store reader and the kernel
#: lookup, the normal form, zero and one of t's field, and the hash,
#: equality and bare constructor of RatFunc.  No route is chosen by these,
#: and each side reaches them on its own entries.  Adding a name here
#: loosens every row.
PLUMBING = frozenset({
    "psi._entry", "psi._q_kernels", "psi._ratfunc",
    "scalars.normalize", "scalars.one_like", "scalars.zero_like",
    "ratfunc.__eq__", "ratfunc.__hash__", "ratfunc._raw", "ratfunc.one",
})


class Route(NamedTuple):
    check: str
    run: Callable[[object], object]
    params: tuple
    sides: tuple[Callable, Callable]
    shared: dict[str, str]


def _gauss_at(t):
    # the mutator eigenvalue of the Gauss family at q0 is q0 at every
    # degree, and that of the symbolic family is q
    return psi.gauss() if t is Q else psi.gauss(t)


_ROWS_ARE_SHARED = ("both sides read the recurrence rows, on purpose: the "
                    "check stays total at t = -1, where the quotient "
                    "refuses (n k) for max(k, n-k) >= 2")
_REUSED_ENTRY = ("_hook_step reads the quotient the matrix side stored, "
                 "only to keep a sum equal to it as that entry")
_TUPLE_KERNELS = ("the power's products and the row step add coefficient "
                  "tuples at q with the kernels of ratfunc, each side on its "
                  "own operands; tests/test_psi.py checks both sides' "
                  "values at q against the scalar operators at rational t")

ROUTES = (
    Route("cauchy-operator",
          lambda t: qplane.verify_cauchy_operator(_gauss_at(t), 4, 3, 3, 2),
          (2, Fraction(5, 3), Q),
          (psi.twisted_sum, qhat.binomial_eigenvalue),
          {}),
    Route("cauchy-scalar",
          lambda t: qplane.verify_cauchy_scalar(4, 3, 3, t),
          (2, Fraction(5, 3), Q, -1),
          (psi.twisted_sum, psi.gauss_binomial),
          {name: _ROWS_ARE_SHARED for name in (
              "psi._row_step", "read _row_step", "write _row_step",
              # the row step's kernels at q
              "ratfunc.q_pascal_row", "ratfunc._pshift_add",
              "ratfunc._padd", "ratfunc._trim")}),
    Route("fermat-hooks",
          lambda t: matrices.fermat_factorization_mismatches(
              4, matrices.ScalarMode(t)),
          (2, Fraction(5, 3), Q),
          (qhat.binomial_eigenvalue, matrices._hook_step),
          {name: _REUSED_ENTRY for name in (
              "qhat.binomial_eigenvalue", "scalars.check",
              "psi._gauss_quotient", "read _gauss_quotient")}),
    # the check reads row n before power n, whose step reads that row only
    # to keep a coefficient equal to its entry as that entry: the read is
    # the power side's alone, and tests/test_qplane.py pins that a wrong
    # row is kept out of the powers and reported
    Route("binomial-theorem",
          lambda _t: qplane.verify_gauss_binomial_theorem(4),
          (Q,),
          (qplane._power_step, psi._row_step),
          {name: _TUPLE_KERNELS for name in (
              "ratfunc._pshift_add", "ratfunc._padd", "ratfunc._trim")}),
)

#: The checks whose verifier sums the twisted Cauchy identity.
SUMMING = ("cauchy-operator", "cauchy-scalar", "fermat-hooks")

#: The verifiers that check a law rather than one value by two routes.
SINGLE_ROUTE = {
    qplane.realization_check:
        "B A and A B compose the same two monomial maps; the claim is the "
        "law B A = t A B, which holds for the dilation realization",
    qplane.check_psi_multiplicativity:
        "both sides are convolution powers from the one psi_binomial table; "
        "the claim is the law p_r p_s = p_(r+s), which deformed families "
        "break",
}


class Trace:
    """What one run reached: ``sides`` maps each side function's name to
    the Counter of its functions and store accesses, and ``calls`` holds
    one such Counter per call of a watched function, wherever it ran."""

    def __init__(self, sides: Iterable[Callable], watch: Iterable[Callable]):
        self._sides = {fn.__code__: fn.__name__ for fn in sides}
        self._watch = {fn.__code__ for fn in watch}
        self.sides = {name: Counter() for name in self._sides.values()}
        self.calls: list[Counter] = []
        # (frame, Counter) of the open side and of the open watched calls
        self._side: tuple | None = None
        self._open: list[tuple] = []

    def note(self, item: str) -> None:
        if self._side is not None:
            self._side[1][item] += 1
        for _frame, counter in self._open:
            counter[item] += 1

    def profile(self, frame, event, _arg) -> None:
        code = frame.f_code
        if not code.co_filename.startswith(_SRC):
            return
        if event == "call":
            name = self._sides.get(code)
            if name is not None and self._side is None:
                self._side = (frame, self.sides[name])
            if code in self._watch:
                self.calls.append(Counter())
                self._open.append((frame, self.calls[-1]))
            # a comprehension or a generator is part of its function
            if not code.co_name.startswith("<"):
                module = os.path.splitext(os.path.basename(
                    code.co_filename))[0]
                self.note(f"{module}.{code.co_name}")
        elif event == "return":
            if self._side is not None and self._side[0] is frame:
                self._side = None
            if self._open and self._open[-1][0] is frame:
                self._open.pop()


class _RecordingMemo(dict):
    """An empty ``psi._memo`` that notes the store of every read and
    write."""

    def __init__(self, note: Callable[[str], None]):
        super().__init__()
        self._note = note

    def get(self, key, default=None):
        self._note("read " + key[0].__name__)
        return super().get(key, default)

    def __getitem__(self, key):
        self._note("read " + key[0].__name__)
        return super().__getitem__(key)

    def __contains__(self, key):
        self._note("read " + key[0].__name__)
        return super().__contains__(key)

    def setdefault(self, key, default=None):
        self._note("write " + key[0].__name__)
        return super().setdefault(key, default)

    def __setitem__(self, key, value):
        self._note("write " + key[0].__name__)
        super().__setitem__(key, value)


def trace(run: Callable[[], object], sides: Iterable[Callable],
          watch: Iterable[Callable] = ()) -> Trace:
    """Run run() from an empty memo under the profiler and return what
    each side and each watched call reached; psi's own memo is put back
    afterwards, as it was."""
    found = Trace(sides, watch)
    saved = psi._memo
    psi._memo = _RecordingMemo(found.note)
    sys.setprofile(found.profile)
    try:
        run()
    finally:
        sys.setprofile(None)
        psi._memo = saved
    return found
