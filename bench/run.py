"""Benchmark entry point: one workload, one seed, one result line.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it measures the `lgpk` under `src/` next to `bench/`.
With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs the
same operations once untraced and once traced, and reports the per-layer
metrics. Earlier stdout lines hold the machine, the build and the input
digest; the last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import checkout

IMPORT_REPS = 5
# percentiles tried for op_ms_tail, highest first
TAIL_LADDER = (99.99, 99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND_TAIL = 10
TRACE_BLOCKS = 50

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mib": "MiB",
}
# extractor counters divided by operations, and their units
PER_OP_EXTRAS = {
    "sampler.RngHandle.take.bytes": "B/op",
    "hashsuite.xof_bits.bytes_in": "B/op",
    "codec.encode.bytes_out": "B/op",
    "codec.decode_prefix.bytes_in": "B/op",
    "cryptanalysis.naf_bruteforce.pairs": "count/op",
    "cryptanalysis.naf_mitm.pairs": "count/op",
    "cli.read_file.bytes": "B/op",
    "cli.write_atomic.bytes": "B/op",
}
# share of calls with a useful outcome: (metric, counter, function)
RATIOS = (
    ("scheme.decrypt.accept_ratio", "scheme.decrypt.accepted", "scheme.decrypt"),
    ("cryptanalysis.naf_bruteforce.found_ratio", "cryptanalysis.naf_bruteforce.found",
     "cryptanalysis.naf_bruteforce"),
    ("cryptanalysis.naf_mitm.found_ratio", "cryptanalysis.naf_mitm.found",
     "cryptanalysis.naf_mitm"),
)
SETUP_TOTALS = ("sampler.sample_prime", "sampler.sample_nilpotent",
                "sampler.sample_noncommuting_pair", "sampler.RngHandle.take")


def per_layer_units(watched: list[str]) -> dict[str, str]:
    units = {}
    for name in watched:
        units[f"{name}.calls"] = "count/op"
        units[f"{name}.self_us"] = "us/op"
    units.update(PER_OP_EXTRAS)
    units.update({metric: "ratio" for metric, _, _ in RATIOS})
    for name in SETUP_TOTALS:
        units[f"setup.{name}.calls"] = "count"
        units[f"setup.{name}.self_us"] = "us"
    units["setup.sampler.RngHandle.take.bytes"] = "B"
    units["trace.overhead_ratio"] = "ratio"
    return units


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest percentile in
    TAIL_LADDER that leaves at least MIN_BEYOND_TAIL samples above it, by the
    nearest-rank rule; the maximum when the run is too short for any."""
    ordered = sorted(latencies)
    n = len(ordered)
    for q in TAIL_LADDER:
        rank = math.ceil(q / 100 * n)
        if n - rank >= MIN_BEYOND_TAIL:
            return q, ordered[rank - 1], n - rank
    return 100.0, ordered[-1], 0


# The shared machine this was sized on changes speed by up to 1.7x over
# seconds, and every operation slows with it. So the harness times a fixed
# unit of reference work, which shares no code with lgpk, before each
# operation and around each set-up step, and scales the end-to-end times by
# REF_NOMINAL_MS over the reference's local median. That removes most of the
# drift, which would otherwise swamp the differences between commits. The
# raw wall-clock figures go to `info`.
_REF_P = 2**255 - 19
_REF_RNG = random.Random(0)
_REF_M = tuple(tuple(_REF_RNG.getrandbits(255) for _ in range(5)) for _ in range(5))
REF_NOMINAL_MS = 0.5
REF_WINDOW = 10  # the local median covers the 2 * REF_WINDOW + 1 nearest references


def reference_ms() -> float:
    """Time one unit of reference work: a 255-bit modular exponentiation and
    three 5x5 modular matrix products, the arithmetic lgpk spends its time on."""
    t0 = time.perf_counter()
    pow(_REF_M[0][0], _REF_M[0][1], _REF_P)
    m, cols = _REF_M, tuple(zip(*_REF_M))
    for _ in range(3):
        m = tuple(tuple(sum(x * y for x, y in zip(row, col)) % _REF_P for col in cols)
                  for row in m)
    return (time.perf_counter() - t0) * 1e3


def scaled(times: list[float], refs: list[float]) -> list[float]:
    """Each time scaled by REF_NOMINAL_MS over the median of the references
    taken around it."""
    return [t * REF_NOMINAL_MS / statistics.median(refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 1])
            for i, t in enumerate(times)]


def timed_pass(workload, state, ops: range | None = None):
    """Run the operations `ops` (default: all) once each, each after one
    reference. Return the latencies (ms), the reference times (ms) and the
    indices of failed operations. Failures are counted, not raised. Checks
    deferred past the timed phase are the caller's."""
    latencies, refs, failed = [], [], set()
    gc.collect()
    clock = time.perf_counter
    for i in ops if ops is not None else range(workload.n_ops):
        refs.append(reference_ms())
        t0 = clock()
        try:
            ok = workload.op(state, i)
        except Exception:
            if not failed:
                traceback.print_exc()
            ok = False
        latencies.append((clock() - t0) * 1e3)
        if not ok:
            failed.add(i)
    return latencies, refs, failed


def scaled_call(fn):
    """Run fn(); return its result, its wall time (s), and that time scaled
    like the operations, by the references taken just before and after it."""
    refs = [reference_ms() for _ in range(REF_WINDOW)]
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    refs += [reference_ms() for _ in range(REF_WINDOW)]
    return result, wall, wall * REF_NOMINAL_MS / statistics.median(refs)


def start_lgpk():
    subprocess.run([sys.executable, "-c", "import lgpk"], check=True,
                   env=checkout.child_env(), timeout=60)


def measure(workload, workdir) -> tuple[dict, dict]:
    """Untraced run: the end-to-end metrics."""
    imports = [scaled_call(start_lgpk)[1:] for _ in range(IMPORT_REPS)]
    setups = []
    for rep in range(workload.setup_reps):
        rep_state, wall, scaled_s = scaled_call(lambda: workload.setup(rep, workdir))
        setups.append((wall, scaled_s))
        if rep == 0:
            state = rep_state
    del rep_state
    setup_s = statistics.median(s for _, s in imports) + statistics.median(s for _, s in setups)
    setup_wall_s = (statistics.median(w for w, _ in imports)
                    + statistics.median(w for w, _ in setups))
    wall_ms, refs, failed = timed_pass(workload, state)
    failed |= workload.check(state)
    latencies = scaled(wall_ms, refs)
    n = workload.n_ops
    q, tail_ms, beyond = tail(latencies)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": n / (sum(latencies) / 1e3),
        "op_ms_p50": statistics.median(latencies),
        "op_ms_tail": tail_ms,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {
        "tail_percentile": q, "tail_samples_beyond": beyond,
        "setup_reps": workload.setup_reps, "setup_rep_s": [wall for wall, _ in setups],
        "ref_nominal_ms": REF_NOMINAL_MS, "ref_ms_p50": statistics.median(refs),
        "wall": {"setup_s": setup_wall_s, "ops_per_s": n / (sum(wall_ms) / 1e3),
                 "op_ms_p50": statistics.median(wall_ms), "op_ms_tail": tail(wall_ms)[1]},
    }
    return _result(n, len(failed), metrics, END_TO_END_UNITS), info


def trace(workload, workdir) -> tuple[dict, dict]:
    """Traced run: every operation runs once untraced on one set-up and once
    traced on another. The two alternate in TRACE_BLOCKS blocks, so drift in
    the machine's speed hits both alike and trace.overhead_ratio shows the
    tracer's cost, not the drift."""
    import tracer

    plain = workload.setup(0, workdir)
    traced, setup_counters = workload.setup_traced(1, workdir)
    t = tracer.Tracer()
    n = workload.n_ops
    failed_plain, failed_traced, wall_plain, wall_traced = set(), set(), 0.0, 0.0
    step = max(1, n // TRACE_BLOCKS)
    for first in range(0, n, step):
        block = range(first, min(first + step, n))
        latencies, _, failed = timed_pass(workload, plain, block)
        failed_plain |= failed
        wall_plain += sum(latencies) / 1e3
        with t:
            latencies, _, failed = timed_pass(workload, traced, block)
        failed_traced |= failed
        wall_traced += sum(latencies) / 1e3
    failed_plain |= workload.check(plain)
    failed_traced |= workload.check(traced)
    counters = t.snapshot()
    watched = tracer.watched_names()
    metrics = {}
    for name in watched:
        metrics[f"{name}.calls"] = counters[f"{name}.calls"] / n
        metrics[f"{name}.self_us"] = counters[f"{name}.self_ns"] / 1e3 / n
    for name in PER_OP_EXTRAS:
        metrics[name] = counters.get(name, 0) / n
    for metric, hits, fn in RATIOS:
        calls = counters[f"{fn}.calls"]
        metrics[metric] = counters.get(hits, 0) / calls if calls else 0.0
    for name in SETUP_TOTALS:
        metrics[f"setup.{name}.calls"] = setup_counters[f"{name}.calls"]
        metrics[f"setup.{name}.self_us"] = setup_counters[f"{name}.self_ns"] / 1e3
    metrics["setup.sampler.RngHandle.take.bytes"] = setup_counters.get(
        "sampler.RngHandle.take.bytes", 0)
    metrics["trace.overhead_ratio"] = wall_plain / wall_traced
    failed = len(failed_plain) + len(failed_traced)
    result = _result(2 * n, failed, metrics, per_layer_units(watched))
    return result, {"untraced_ops_per_s": n / wall_plain, "traced_ops_per_s": n / wall_traced}


def _result(attempted: int, failed: int, metrics: dict, units: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        lgpk = checkout.import_lgpk()
    except checkout.CheckoutError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds)
    work_root = checkout.ROOT / ".bench_work"
    workdir = work_root / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result, details = (trace if args.trace else measure)(workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()
    info = checkout.machine_info(lgpk)
    info.update(workload=workload.name, seed=args.seed, seconds=args.seconds,
                trace=args.trace, ops=workload.n_ops, inputs_sha256=workload.digest,
                fail_ratio=result["failed"] / result["attempted"], **details)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
