"""Overhead budget for observability instrumentation.

The ``repro.obs`` tracer is threaded through ``SpotFi.locate`` and the
executors; when tracing is off every call site pays only an
``if tracer.enabled`` attribute lookup plus the histogram ``observe``
in :class:`~repro.runtime.metrics.RuntimeMetrics`.  This benchmark pins
that cost: it times an uninstrumented baseline (a bare Python loop over
the same per-AP estimation tasks, one per small-testbed AP) against the
instrumented ``SerialExecutor.map_ordered`` path with the default no-op
tracer, and **fails** (exit 1) when the relative overhead exceeds the
budget.

For information only, it also times a fully enabled :class:`Tracer`
through the traced ``SpotFi.locate`` path — that mode is diagnostic and
has no budget, but the number belongs next to the no-op one.

Run standalone (plain script, like ``bench_runtime.py``, so CI can
smoke it and upload the JSON artifact):

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --threshold 3 --json results/obs_overhead.json

Timings are best-of-``--repeats``, so cache warm-up (steering vectors,
numpy JIT-ish first-call costs) is amortized away.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List

import numpy as np

from repro.core.estimator import JointEstimator, SteeringModel, estimate_ap_packets
from repro.core.pipeline import SpotFi, SpotFiConfig
from repro.obs import Tracer
from repro.runtime import RuntimeMetrics, SerialExecutor, default_steering_cache
from repro.testbed.layout import small_testbed

SEED = 20150817  # SIGCOMM'15 presentation date, like the figure benches


def build_tasks(packets: int, seed: int = SEED):
    """Per-AP estimation tasks for one burst at every AP (the executor unit)."""
    testbed = small_testbed()
    sim = testbed.simulator()
    rng = np.random.default_rng(seed)
    target = testbed.targets[0].position
    tasks = []
    for ap in testbed.aps:
        trace = sim.generate_trace(target, ap, packets, rng=rng)
        model = SteeringModel.for_grid(
            sim.grid,
            num_antennas=ap.num_antennas,
            antenna_spacing_m=ap.spacing_m,
        )
        tasks.append((JointEstimator(model=model), [frame.csi for frame in trace]))
    return testbed, sim, tasks


def time_baseline(tasks, repeats: int) -> float:
    """Best-of-``repeats`` for a bare loop: no executor, no metrics."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        results = [estimate_ap_packets(task) for task in tasks]
        best = min(best, time.perf_counter() - start)
        assert len(results) == len(tasks)
    return best


def time_instrumented(tasks, repeats: int) -> float:
    """Best-of-``repeats`` through SerialExecutor + histogram metrics."""
    best = float("inf")
    for _ in range(repeats):
        executor = SerialExecutor(metrics=RuntimeMetrics())
        start = time.perf_counter()
        results = executor.map_ordered(estimate_ap_packets, tasks, stage="estimate")
        best = min(best, time.perf_counter() - start)
        assert len(results) == len(tasks)
    return best


def time_traced_locate(testbed, sim, packets: int, repeats: int) -> float:
    """Best-of-``repeats`` for a fully traced locate (diagnostic mode)."""
    rng = np.random.default_rng(SEED)
    target = testbed.targets[0].position
    pairs = [
        (ap, sim.generate_trace(target, ap, packets, rng=rng))
        for ap in testbed.aps[:3]
    ]
    best = float("inf")
    for _ in range(repeats):
        spotfi = SpotFi(
            sim.grid,
            bounds=testbed.bounds,
            config=SpotFiConfig(packets_per_fix=packets),
            rng=np.random.default_rng(0),
            tracer=Tracer(),
        )
        start = time.perf_counter()
        spotfi.locate(pairs)
        best = min(best, time.perf_counter() - start)
    return best


def main(argv: List[str] | None = None) -> int:
    """Run the overhead comparison; exit non-zero over budget."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--packets", type=int, default=20, help="packets per burst")
    parser.add_argument("--repeats", type=int, default=5, help="best-of repeats")
    parser.add_argument(
        "--threshold",
        type=float,
        default=3.0,
        help="max allowed no-op instrumentation overhead, percent",
    )
    parser.add_argument(
        "--json", default=None, help="write results to this JSON file"
    )
    args = parser.parse_args(argv)

    testbed, sim, tasks = build_tasks(args.packets)
    # Warm the steering cache once so neither side pays the first-call
    # grid construction and the comparison is estimation-only.
    estimate_ap_packets(tasks[0])

    baseline_s = time_baseline(tasks, args.repeats)
    instrumented_s = time_instrumented(tasks, args.repeats)
    overhead_pct = (instrumented_s - baseline_s) / baseline_s * 100.0
    traced_s = time_traced_locate(testbed, sim, args.packets, args.repeats)

    results = {
        "packets": args.packets,
        "repeats": args.repeats,
        "baseline_s": baseline_s,
        "instrumented_noop_s": instrumented_s,
        "overhead_pct": overhead_pct,
        "threshold_pct": args.threshold,
        "traced_locate_s": traced_s,
        "cache": default_steering_cache().stats(),
    }
    print(f"baseline (bare loop):        {baseline_s * 1e3:8.2f} ms")
    print(f"instrumented (noop tracer):  {instrumented_s * 1e3:8.2f} ms")
    print(f"overhead:                    {overhead_pct:+8.2f} %  (budget {args.threshold:.1f} %)")
    print(f"traced locate (diagnostic):  {traced_s * 1e3:8.2f} ms  [no budget]")

    if args.json:
        with open(args.json, "w", encoding="utf-8") as stream:
            json.dump(results, stream, indent=2)
        print(f"results -> {args.json}")

    if overhead_pct > args.threshold:
        print(
            f"FAIL: no-op instrumentation overhead {overhead_pct:.2f}% exceeds "
            f"budget {args.threshold:.1f}%"
        )
        return 1
    print("PASS: instrumentation within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
