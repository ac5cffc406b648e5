"""One benchmark session: a fresh interpreter running one workload phase.

Started by run.py, never by hand.  It prints one JSON object on its last
stdout line.  Phases:

* ``measure``: the timed ops of a workload.  ``symbolic`` runs its op
  list once on cold caches.  ``rational-sweep`` runs the list once
  untimed to fill the caches, then timed passes until ``--seconds`` has
  gone by.  ``cli`` starts one ``python -m psifoc.cli`` process per op,
  one at a time, until ``--seconds`` has gone by.  A HostClock samples
  the host's speed between ops, so every op time can also be given at
  a fixed reference speed.
* ``plain``, ``spans``, ``alloc``: one pass over the list in this
  process, untraced, traced, or under tracemalloc.  CLI ops run
  in-process through ``parse_command`` and ``run_command``.
  ``rational-sweep`` does all three in one session after its warm-up
  pass (phase ``warm-trace``), so every pass sees the same warm caches.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import ops as opmod

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
CLI_TIMEOUT_S = 120


# kernel_s() on the host the benchmark was written on (2 vCPUs, Python
# 3.11.7) at its fastest; that host's speed varied by up to 1.9x over
# seconds and minutes.  Op and set-up times are reported at this
# reference speed: each is scaled by KERNEL_REF_S over the kernel's time
# measured next to it.
KERNEL_REF_S = 0.0015
# Op time between two kernel samples.
BLOCK_S = 0.1
# How far from an op's block the samples that scale it may lie.
SPAN_S = 0.3


def _kernel() -> None:
    acc = [Fraction(1)]
    for i in range(1, 25):
        x = Fraction(i, i + 1)
        acc = [a * x + b for a, b in zip(acc + [0], [0] + acc)][:12]
    n = 0
    for i in range(6000):
        n = (n * 31 + i) % 1_000_003


def kernel_s() -> float:
    """Fastest of three runs of a fixed pure-Python kernel: Fraction
    polynomial products and an integer loop, the kinds of work psifoc
    does.  The cyclic GC is paused so that the heap psifoc built does not
    slow it; the minimum drops a run that an interrupt cut into."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - start)
        return min(times)
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Samples the kernel between ops, every BLOCK_S of op time.  finish()
    then appends to each op record its time at the reference host speed:
    the op time times KERNEL_REF_S over the median of the samples taken
    from SPAN_S before the op's block to SPAN_S after it.  A single
    sample is off by a few percent, which scaled the tail of short ops;
    the median of a few is not.  A long op gets the samples on either
    side of it alone, since the host may change speed during it."""

    def __init__(self):
        self.samples: list[float] = []
        self.times: list[float] = []  # when each sample ended
        self.kernel_total_s = 0.0  # time spent sampling
        self._sample()
        self.blocks: list[list[list]] = []  # block i ends at sample i + 1
        self.block: list[list] = []
        self.block_s = 0.0

    def _sample(self) -> None:
        start = time.perf_counter()
        self.samples.append(kernel_s())
        self.times.append(time.perf_counter())
        self.kernel_total_s += self.times[-1] - start

    def add(self, record: list | None, elapsed: float) -> None:
        if record is not None:
            self.block.append(record)
        self.block_s += elapsed
        if self.block_s >= BLOCK_S:
            self.close()

    def close(self) -> None:
        """Ends the block; call it after the last op of a pass."""
        if not self.block_s:
            return
        self._sample()
        self.blocks.append(self.block)
        self.block = []
        self.block_s = 0.0

    def finish(self) -> None:
        for i, block in enumerate(self.blocks):
            lo, hi = self.times[i] - SPAN_S, self.times[i + 1] + SPAN_S
            window = [k for k, t in zip(self.samples, self.times)
                      if lo <= t <= hi]
            scale = KERNEL_REF_S / statistics.median(window)
            for record in block:
                record.append(record[2] * scale)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("PSIFOC_TRUNC", None)  # the reference assumes the default
    return env


def op_list(workload: str, seed: int) -> list[tuple]:
    return {"symbolic": opmod.symbolic_ops, "rational-sweep": opmod.sweep_ops,
            "cli": opmod.cli_ops}[workload](seed)


class Session:
    def __init__(self, workload: str, ops: list[tuple], scratch: str,
                 in_process: bool):
        self.workload = workload
        self.ops = ops
        self.scratch = scratch
        # [kind, size, ms, ms at the reference host speed]; the last
        # field only where a HostClock timed the op
        self.records: list[list] = []
        self.parse_ms: list[float] = []  # in-process CLI ops only
        self.run_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []  # the first few reasons
        # CLI ops measured as processes never import psifoc here
        self.lib = (opmod.Library() if in_process or workload != "cli"
                    else None)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(reason)

    def check_cli(self, op: tuple, code: int, stdout: str, path) -> None:
        if path is not None and stdout == path + "\n":
            stdout = opmod.OUT + "\n"
        reason = opmod.check_cli(op, code, stdout, _read_out(path))
        if reason:
            self.fail(reason)

    # -- library ops ------------------------------------------------------

    def library_pass(self, record: bool, call=None,
                     clock: HostClock | None = None) -> float:
        """Run every op once in-process; returns the summed op time."""
        total = 0.0
        for index, op in enumerate(self.ops):
            if self.workload == "cli":
                fn, path = self._cli_inproc(op, index)
            else:
                fn, path = self.lib.runner(op), None
            self.attempted += 1
            start = time.perf_counter()
            try:
                out = fn() if call is None else call(index, fn)
            except Exception as exc:  # an op that raises counts as failed
                self.fail(f"{op[0]} {op[1]!r} raised {exc!r}")
                continue
            elapsed = time.perf_counter() - start
            total += elapsed
            rec = [op[0], op[2], elapsed * 1000] if record else None
            if record:
                self.records.append(rec)
            if clock is not None:
                clock.add(rec, elapsed)
            if self.workload == "cli":
                code, stdout, parse_s, run_s = out
                if record:
                    self.parse_ms.append(parse_s * 1000)
                    self.run_ms.append(run_s * 1000)
                self.check_cli(op, code, stdout, path)
            else:
                reason = opmod.check(op, out)
                if reason:
                    self.fail(reason)
        if clock is not None:
            clock.close()
        return total

    def _cli_inproc(self, op: tuple, index: int):
        """parse_command then run_command, with main's stdout rule."""
        argv, path = self._argv(op, index)
        cli = self.lib.cli

        def run():
            start = time.perf_counter()
            try:
                cmd = cli.parse_command(list(argv))
            except cli.ParseError:
                return 2, "", time.perf_counter() - start, 0.0
            parsed = time.perf_counter()
            code, text = cli.run_command(cmd)
            ran = time.perf_counter()
            stdout = "" if code == 2 or not text else text + "\n"
            return code, stdout, parsed - start, ran - parsed
        return run, path

    def _argv(self, op: tuple, index: int):
        argv = op[1][0]
        if opmod.OUT not in argv:
            return argv, None
        path = os.path.relpath(os.path.join(self.scratch, f"{index}.out"),
                               ROOT)
        return tuple(path if a == opmod.OUT else a for a in argv), path

    # -- CLI processes ----------------------------------------------------

    def cli_loop(self, seconds: float, clock: HostClock) -> None:
        env = child_env()
        begin = time.perf_counter()
        index = 0
        while index == 0 or time.perf_counter() - begin < seconds:
            op = self.ops[index % len(self.ops)]
            argv, path = self._argv(op, index)
            self.attempted += 1
            start = time.perf_counter()
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "psifoc.cli", *argv], cwd=ROOT,
                    env=env, capture_output=True, text=True,
                    timeout=CLI_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.fail(f"timed out: {' '.join(argv)}")
                index += 1
                continue
            elapsed = time.perf_counter() - start
            rec = [op[0], op[2], elapsed * 1000]
            self.records.append(rec)
            clock.add(rec, elapsed)
            self.check_cli(op, proc.returncode, proc.stdout, path)
            index += 1
        clock.close()


def _read_out(path):
    if path is None:
        return None
    full = os.path.join(ROOT, path)
    try:
        with open(full, encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return None
    finally:
        if os.path.exists(full):
            os.remove(full)


def import_ms(samples: int = 7) -> float:
    """Median wall time of a process that only imports psifoc.cli."""
    env = child_env()
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import psifoc.cli"], cwd=ROOT,
                       env=env, check=True, capture_output=True,
                       timeout=CLI_TIMEOUT_S)
        times.append((time.perf_counter() - start) * 1000)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Trace passes.
# ---------------------------------------------------------------------------

# lru caches read for hit ratios; geometric sums and the factorials built
# from them form one cache family.
CACHES = {"psi.gauss_row": (("psi", "_gauss_row"),),
          "qhat.eigen": (("qhat", "_binomial_eigenvalue"),),
          "qhat.geometric": (("qhat", "geometric_sum"),
                             ("qhat", "_geometric_factorial"))}


def cache_counts() -> dict:
    """[hits, misses] per cache family; a family none of whose caches the
    code still has is left out and reported as absent."""
    out = {}
    for label, members in CACHES.items():
        for module, name in members:
            fn = getattr(sys.modules.get(f"psifoc.{module}"), name, None)
            if hasattr(fn, "cache_info"):
                info = fn.cache_info()
                hits, misses = out.get(label, (0, 0))
                out[label] = (hits + info.hits, misses + info.misses)
    return out


def spans_pass(session: Session, trace_path: str) -> dict:
    from tracing import Tracer
    tracer = Tracer()
    eigen = {"distinct": 0, "degrees": 0}

    def count_eigen(op):
        eigen["distinct"] += len(set(op.eigenvalues))
        eigen["degrees"] += len(op.eigenvalues)
    tracer.hooks["qhat.qhat_operator"] = count_eigen
    before = cache_counts()
    tracer.install()
    try:
        wall = session.library_pass(record=False, call=tracer.call_op)
    finally:
        tracer.uninstall()
    after = cache_counts()
    caches = {label: [after[label][0] - before[label][0],
                      after[label][1] - before[label][1]]
              for label in after if label in before}
    dump = tracer.dump()
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump(dump, handle)
    return {"ops_wall_s": wall, "per_name": dump["per_name"],
            "layer_self_s": tracer.layer_self(), "caches": caches,
            "eigen": eigen,
            "spans": len(dump["spans"]), "spans_dropped": dump["spans_dropped"],
            "trace_file": os.path.relpath(trace_path, ROOT)}


def alloc_pass(session: Session) -> dict:
    import tracemalloc
    tracemalloc.start()
    try:
        session.library_pass(record=False)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {"tracemalloc_peak_mb": peak / 2 ** 20}


def plain_pass(session: Session) -> dict:
    out = {"ops_wall_s": session.library_pass(record=True)}
    if session.parse_ms:
        out["parse_ms"] = statistics.median(session.parse_ms)
        out["run_ms"] = statistics.median(session.run_ms)
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=opmod.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--phase", required=True,
                    choices=("measure", "setup", "plain", "spans", "alloc",
                             "warm-trace"))
    ap.add_argument("--seconds", type=float, default=0.0)
    args = ap.parse_args()
    # The ops, the kernel and the CLI children share one CPU, so that the
    # kernel measures the CPU the ops run on: the CPUs of a shared host
    # slow down and speed up apart from each other.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # host speed at the start of set-up; the first run warms the kernel
    start = time.perf_counter()
    kernel_s()
    setup_samples = [kernel_s()]
    setup_kernel_s = time.perf_counter() - start
    sys.path.insert(0, SRC)

    ops = op_list(args.workload, args.seed)
    scratch = os.path.join(OUT_DIR, f"scratch-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        # a setup session does what a measure session does up to its
        # first timed op, then stops
        timed = args.phase in ("measure", "setup")
        session = Session(args.workload, ops, scratch, in_process=not timed)
        result: dict = {"work": opmod.work_counts(ops)}
        if args.workload == "rational-sweep":  # warm-up: fills caches
            warm = HostClock() if timed else None
            session.library_pass(record=False, clock=warm)
            if warm is not None:
                setup_samples += warm.samples
                setup_kernel_s += warm.kernel_total_s
        ready = time.monotonic()
        clock = None
        if timed:
            clock = HostClock()
            setup_samples.append(clock.samples[0])
        if args.phase == "measure":
            if args.workload == "cli":
                session.cli_loop(args.seconds, clock)
            elif args.workload == "symbolic":
                session.library_pass(record=True, clock=clock)
            else:
                begin = time.perf_counter()
                passes = 0
                while passes == 0 or time.perf_counter() - begin < args.seconds:
                    session.library_pass(record=True, clock=clock)
                    passes += 1
                result["passes"] = passes
            clock.finish()
        elif not timed:
            trace_path = os.path.join(
                OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
            if args.phase in ("plain", "warm-trace"):
                result["plain"] = plain_pass(session)
                result["import_ms"] = import_ms()
            if args.phase in ("spans", "warm-trace"):
                result["spans"] = spans_pass(session, trace_path)
            if args.phase in ("alloc", "warm-trace"):
                result["alloc"] = alloc_pass(session)
        result.update({
            "t_ready": ready,
            "records": session.records,
            "attempted": session.attempted,
            "failed": session.failed,
            "failures": session.failures,
            "rss_self_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            "rss_children_mb": resource.getrusage(
                resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
            "kernel_samples_s": (clock.samples if clock is not None
                                 else [kernel_s()]),
            "setup_kernel_samples_s": setup_samples,
            "setup_kernel_s": setup_kernel_s,
        })
    finally:
        for name in os.listdir(scratch):
            os.remove(os.path.join(scratch, name))
        os.rmdir(scratch)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
