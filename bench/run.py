"""psifoc benchmark: run one workload, check every output, print metrics.

Usage, from the repository root::

    python3 bench/run.py --workload {symbolic,rational-sweep,cli}
                         --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics in untraced sessions.
Their times are given at a fixed reference host speed, measured by a
kernel run between the ops (see worker.HostClock), because the CPU
speed of a shared 2-vCPU host changed by up to 1.9x within and between
runs; the summary lines also print them as measured.
``--trace 1`` runs the same op list under the span tracer and prints the
per-layer metrics.  Each session is a fresh interpreter (bench/worker.py)
started one at a time, so all load comes from one single-threaded
process.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it repeat the metrics for a reader.  Details (environment, work counts,
per-op records, failures) go to .bench_out/ at the repository root.
The exit code is 0 when every output matched its reference, 1 when some
did not, and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from ops import WORKLOADS
from worker import KERNEL_REF_S

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(BENCH_DIR, "worker.py")
# Every session must end by this many seconds after the run starts, so a
# hung op still ends the run within three minutes.
RUN_LIMIT_S = 170
# rational-sweep and cli split a run into this many sessions, so set-up
# is sampled several times; symbolic starts sessions until time is up.
SESSIONS = 3
MIN_SYMBOLIC_SESSIONS = 3
# Extra sessions that only set up and exit, so that setup_s is a median
# of more samples.  rational-sweep has none: its set-up holds a warm-up
# pass of seconds, and its three sessions already agree closely.
SETUP_PROBES = {"symbolic": 8, "rational-sweep": 0, "cli": 8}

CACHE_STATE = {
    "symbolic": "cold: a fresh interpreter per session, no warm-up",
    "rational-sweep": "warm: one untimed pass per session fills them",
    "cli": "cold: every op is a fresh psifoc process (traced: one "
           "fresh interpreter per pass)",
}

END_TO_END = (
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"), ("ok_ratio", "ratio"),
)


# Each time metric, reported at the reference host speed, and its
# as-measured twin, which the detail file and summary lines also give.
RAW = {"setup_s": "setup_raw_s", "ops_per_s": "ops_per_s_raw",
       "op_p50_ms": "op_p50_raw_ms", "op_p90_ms": "op_p90_raw_ms"}


class BenchError(Exception):
    """The benchmark itself could not run."""


RUN_START = time.monotonic()


def spawn(workload: str, seed: int, phase: str, seconds: float) -> dict:
    start = time.monotonic()
    # its own process group, so a timeout also stops the CLI children
    proc = subprocess.Popen(
        [sys.executable, WORKER, "--workload", workload, "--seed",
         str(seed), "--phase", phase, "--seconds", str(seconds)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        stdout, stderr = proc.communicate(
            timeout=max(1.0, RUN_START + RUN_LIMIT_S - start))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} {phase} session timed out")
    if proc.returncode != 0 or not stdout.strip():
        raise BenchError(f"{workload} {phase} session exited "
                         f"{proc.returncode}: {stderr.strip()[-2000:]}")
    result = json.loads(stdout.strip().splitlines()[-1])
    # set-up without the kernel samples taken in it, then at the
    # reference host speed
    raw = result["t_ready"] - start - result["setup_kernel_s"]
    result["setup_raw_s"] = raw
    result["setup_s"] = raw * KERNEL_REF_S / statistics.fmean(
        result["setup_kernel_samples_s"])
    return result


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


# ---------------------------------------------------------------------------
# End-to-end run.
# ---------------------------------------------------------------------------

def measure(workload: str, seed: int,
            seconds: float) -> tuple[dict, list, list]:
    """Metrics, the timed sessions and the set-up sessions."""
    probes = [spawn(workload, seed, "setup", 0)
              for _ in range(SETUP_PROBES[workload])]
    sessions = []
    if workload == "symbolic":
        begin = time.monotonic()
        while (len(sessions) < MIN_SYMBOLIC_SESSIONS
               or time.monotonic() - begin < seconds):
            sessions.append(spawn(workload, seed, "measure", 0))
    else:
        for _ in range(SESSIONS):
            sessions.append(spawn(workload, seed, "measure",
                                  seconds / SESSIONS))
    records = [r for s in sessions for r in s["records"]]
    rss_key = "rss_children_mb" if workload == "cli" else "rss_self_mb"
    attempted = sum(s["attempted"] for s in sessions)
    failed = sum(s["failed"] for s in sessions)
    metrics = {
        "peak_rss_mb": max(s[rss_key] for s in sessions),
        "ok_ratio": 1 - failed / attempted,
    }
    # field 3 is the op time at the reference host speed, field 2 as
    # measured; the raw figures are kept for the reader
    for suffix, field in (("", 3), ("_raw", 2)):
        latencies = [r[field] for r in records]
        metrics.update({
            f"setup{suffix}_s": statistics.median(
                s[f"setup{suffix}_s"] for s in probes + sessions),
            f"ops_per_s{suffix}": len(latencies) / (sum(latencies) / 1000),
            f"op_p50{suffix}_ms": statistics.median(latencies),
            f"op_p90{suffix}_ms": percentile(latencies, 90),
        })
    return metrics, sessions, probes


# ---------------------------------------------------------------------------
# Traced run.
# ---------------------------------------------------------------------------

# (metric, unit, better); trace() below says how each is read.
PER_LAYER = (
    ("scalars.ratfunc_ops", "count", "lower"),
    ("scalars.ratfunc_self_s", "s", "lower"),
    ("scalars.strict_ops", "count", "lower"),
    ("scalars.strict_self_s", "s", "lower"),
    ("scalars.render_s", "s", "lower"),
    ("scalars.self_s", "s", "lower"),
    ("psi.gauss_binomial.calls", "count", "lower"),
    ("psi.gauss_binomial.self_s", "s", "lower"),
    ("psi.psi_binomial.calls", "count", "lower"),
    ("psi.psi_binomial.self_s", "s", "lower"),
    ("psi.gauss_row_hit_ratio", "ratio", "higher"),
    ("psi.self_s", "s", "lower"),
    ("qhat.qhat_operator.self_s", "s", "lower"),
    ("qhat.op_binomial.calls", "count", "lower"),
    ("qhat.op_binomial.self_s", "s", "lower"),
    ("qhat.binomial_eigenvalue.calls", "count", "lower"),
    ("qhat.binomial_eigenvalue.self_s", "s", "lower"),
    ("qhat.eigen_hit_ratio", "ratio", "higher"),
    ("qhat.geometric_hit_ratio", "ratio", "higher"),
    ("qhat.distinct_eigenvalue_ratio", "ratio", "lower"),
    ("qhat.self_s", "s", "lower"),
    ("qplane.qpoly_mul.calls", "count", "lower"),
    ("qplane.qpoly_mul.self_s", "s", "lower"),
    ("qplane.verify_cauchy_operator.self_s", "s", "lower"),
    ("qplane.verify_gauss_binomial_theorem.self_s", "s", "lower"),
    ("qplane.explore_observation1_general.self_s", "s", "lower"),
    ("qplane.realization_check.self_s", "s", "lower"),
    ("qplane.self_s", "s", "lower"),
    ("matrices.matmul.calls", "count", "lower"),
    ("matrices.matmul.self_s", "s", "lower"),
    ("matrices.fermat_matrix.self_s", "s", "lower"),
    ("matrices.fermat_factorization_mismatches.self_s", "s", "lower"),
    ("matrices.count_subspaces.self_s", "s", "lower"),
    ("matrices.export_matrix.self_s", "s", "lower"),
    ("matrices.self_s", "s", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.parse_ms", "ms", "lower"),
    ("cli.run_ms", "ms", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.ops_wall_s", "s", "lower"),
    ("trace.layer_share", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.tracemalloc_peak_mb", "MB", "lower"),
)

RATFUNC_OPS = ("__add__", "__sub__", "__mul__", "__truediv__", "__pow__")
STRICT_OPS = ("add", "sub", "mul", "div", "powi")
CACHE_METRICS = {"psi.gauss_row_hit_ratio": "psi.gauss_row",
                 "qhat.eigen_hit_ratio": "qhat.eigen",
                 "qhat.geometric_hit_ratio": "qhat.geometric"}


def trace(workload: str, seed: int) -> tuple[dict, list, list]:
    """Per-layer metrics, the sessions behind them, and the names of
    metrics the code gives no reading for (reported as 0)."""
    if workload == "rational-sweep":
        sessions = [spawn(workload, seed, "warm-trace", 0)]
        plain = spans = alloc = sessions[0]
    else:  # cold workloads: each pass in its own fresh interpreter
        sessions = [spawn(workload, seed, phase, 0)
                    for phase in ("plain", "spans", "alloc")]
        plain, spans, alloc = sessions
    sp = spans["spans"]
    per_name = sp["per_name"]

    def calls(name):
        return per_name.get(name, {}).get("calls", 0)

    def self_s(name):
        return per_name.get(name, {}).get("self_s", 0.0)

    layers = sp["layer_self_s"]
    m = {
        "scalars.ratfunc_ops": sum(calls(f"scalars.RatFunc.{op}")
                                   for op in RATFUNC_OPS),
        "scalars.ratfunc_self_s": sum(self_s(f"scalars.RatFunc.{op}")
                                      for op in RATFUNC_OPS),
        "scalars.strict_ops": sum(calls(f"scalars.{op}") for op in STRICT_OPS),
        "scalars.strict_self_s": sum(self_s(f"scalars.{op}")
                                     for op in STRICT_OPS),
        "scalars.render_s": self_s("scalars.render"),
        "qplane.qpoly_mul.calls": calls("qplane.QPlanePoly.__mul__"),
        "qplane.qpoly_mul.self_s": self_s("qplane.QPlanePoly.__mul__"),
        "matrices.matmul.calls": calls("matrices.ScalarMatrix.__matmul__"),
        "matrices.matmul.self_s": self_s("matrices.ScalarMatrix.__matmul__"),
        "cli.import_ms": plain["import_ms"],
        "trace.ops_wall_s": sp["ops_wall_s"],
        "trace.layer_share": sum(layers.values()) / sp["ops_wall_s"],
        "trace.overhead_ratio": sp["ops_wall_s"] / plain["plain"]["ops_wall_s"],
        "trace.tracemalloc_peak_mb": alloc["alloc"]["tracemalloc_peak_mb"],
    }
    absent = []
    for name, _unit, _better in PER_LAYER:
        if name in m:
            continue
        layer, _, rest = name.partition(".")
        if rest == "self_s":
            m[name] = layers.get(layer, 0.0)
        elif name in CACHE_METRICS:
            hits, misses = sp["caches"].get(CACHE_METRICS[name], (0, 0))
            m[name] = hits / (hits + misses) if hits + misses else 0.0
            if not hits + misses:
                absent.append(name)
        elif name == "qhat.distinct_eigenvalue_ratio":
            eigen = sp["eigen"]
            m[name] = (eigen["distinct"] / eigen["degrees"]
                       if eigen["degrees"] else 0.0)
            if not eigen["degrees"]:
                absent.append(name)
        elif name in ("cli.parse_ms", "cli.run_ms"):
            m[name] = plain["plain"].get(rest, 0.0)
            if rest not in plain["plain"]:
                absent.append(name)
        elif rest.endswith(".calls"):
            m[name] = calls(name[:-len(".calls")])
        else:
            m[name] = self_s(name[:-len(".self_s")])
    return m, sessions, absent


# ---------------------------------------------------------------------------

def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]),
                  encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return None


def environment(seed: int, sessions: list) -> dict:
    per_session = [statistics.median(s["kernel_samples_s"])
                   for s in sessions]
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(), "nproc": os.cpu_count(),
            "git_sha": git_sha(), "seed": seed,
            "calibration_s": statistics.median(per_session),
            "calibration_ref_s": KERNEL_REF_S,
            "calibration_per_session_s": per_session,
            "calibration_samples": sum(len(s["kernel_samples_s"])
                                       for s in sessions)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "psifoc", "__init__.py")):
        print("error: src/psifoc not found beside the benchmark; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        if args.trace:
            metrics, sessions, absent = trace(args.workload, args.seed)
            probes = []
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            metrics, sessions, probes = measure(args.workload, args.seed,
                                                args.seconds)
            absent = []
            units = dict(END_TO_END)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = sum(s["attempted"] for s in sessions)
    failed = sum(s["failed"] for s in sessions)
    records = [r for s in sessions for r in s["records"]]
    detail = {
        "workload": args.workload, "trace": args.trace,
        "cache_state": CACHE_STATE[args.workload],
        "seconds": args.seconds, "environment": environment(args.seed,
                                                            sessions),
        "work_per_pass": sessions[0]["work"],
        "sessions": len(sessions),
        "passes": [s.get("passes", 1) for s in sessions],
        "setup_s_per_session": [s["setup_s"] for s in probes + sessions],
        "samples": len(records), "metrics": metrics, "absent": absent,
        "attempted": attempted, "failed": failed,
        "failures": [f for s in sessions for f in s["failures"]][:50],
        "trace_spans": [s["spans"] for s in sessions if "spans" in s],
        "op_fields": ["kind", "size", "ms"] + ["ref_ms"] * (not args.trace),
        "ops": records,
    }
    detail_path = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(detail_path, "w", encoding="utf-8") as handle:
        json.dump(detail, handle)

    env = detail["environment"]
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{len(sessions)} sessions, {len(records)} timed op samples, "
          f"caches {CACHE_STATE[args.workload]}")
    print(f"environment: Python {env['python']}, nproc {env['nproc']}, "
          f"git {env['git_sha'] or 'unknown'}, calibration kernel "
          f"{env['calibration_s'] * 1000:.3f} ms (reference "
          f"{KERNEL_REF_S * 1000:.3f} ms)")
    print(f"work per pass: {json.dumps(detail['work_per_pass'])}")
    for name in units:
        value = metrics[name]
        note = " (absent)" if name in absent else ""
        raw = RAW.get(name)
        if raw in metrics:
            note += f" (as measured: {metrics[raw]:.6g})"
        print(f"  {name} = {value:.6g} {units[name]}{note}")
    print(f"  failed_ratio = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} ops)")
    for reason in detail["failures"][:10]:
        print(f"  failure: {reason}")
    print(f"details: {os.path.relpath(detail_path, ROOT)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
