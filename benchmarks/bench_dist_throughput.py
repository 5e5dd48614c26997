"""Throughput benchmark for ``repro.dist`` sharded serving.

Streams the same multi-source CSI workload through a ``ShardRouter``
backed by 1, 2, ... N shard worker processes and reports end-to-end
fixes per second for each cluster size, plus the per-item MUSIC
latency quantiles rolled up from every shard's metrics snapshot.

Run standalone (plain script, like ``bench_runtime.py``):

    PYTHONPATH=src python benchmarks/bench_dist_throughput.py
    PYTHONPATH=src python benchmarks/bench_dist_throughput.py --shards 1,2,4 --sources 8

Results are written to ``BENCH_dist.json`` at the repo root (disable
with ``--json ''``).  Scaling is bounded by the machine's core count:
shards are CPU-bound MUSIC servers, so on a single-core container the
multi-shard rows measure routing overhead, not speedup.  CI boxes with
cores to spare can enforce scaling with ``--min-speedup 2.0``, which
fails the run when the largest cluster does not beat the single-shard
baseline by that factor.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.dist import ShardConfig, ShardRouter, merge_snapshots, start_shards
from repro.dist.chaos import PACKET_INTERVAL_S
from repro.testbed.layout import small_testbed

SEED = 20150817  # SIGCOMM'15 presentation date, like the figure benches
REPO_ROOT = Path(__file__).resolve().parent.parent


def build_workload(sources: int, packets: int, seed: int = SEED):
    """Per-source, per-AP traces for ``sources`` targets in a small room."""
    testbed = small_testbed()
    sim = testbed.simulator()
    rng = np.random.default_rng(seed)
    names = [f"target-{j:02d}" for j in range(sources)]
    traces = {
        name: [
            sim.generate_trace(
                testbed.targets[j % len(testbed.targets)].position,
                ap,
                packets,
                rng=rng,
                source=name,
            )
            for ap in testbed.aps
        ]
        for j, name in enumerate(names)
    }
    return testbed, names, traces


def run_cluster(
    num_shards: int,
    packets: int,
    names,
    traces,
    testbed,
    journal_max_frames: int = 512,
) -> dict:
    """Stream the whole workload through ``num_shards`` shards; time it."""
    config = ShardConfig(
        shard_id="bench",
        testbed="small",
        packets_per_fix=packets,
        min_aps=2,
        max_burst_age_s=0.0,
        seed=SEED,
    )
    fixes = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-dist-") as tmp:
        shards = start_shards(num_shards, config, tmp)
        router = ShardRouter(
            {shard_id: proc.spec for shard_id, proc in shards.items()},
            batch_max_frames=len(testbed.aps),
            journal_max_frames=journal_max_frames,
        )
        try:
            start = time.perf_counter()
            for k in range(packets):
                stamp = k * PACKET_INTERVAL_S
                for name in names:
                    for i, trace in enumerate(traces[name]):
                        frame = replace(trace[k], timestamp_s=stamp, source=name)
                        router.ingest(f"ap{i}", frame)
                fixes.extend(router.take_fixes())
            fixes.extend(router.flush())
            elapsed = time.perf_counter() - start
            snapshots = [
                reply["snapshot"]
                for reply in router.pull_metrics()
                if isinstance(reply.get("snapshot"), dict)
            ]
            fixes.extend(router.shutdown())
        finally:
            router.close()
            for proc in shards.values():
                proc.terminate()
                proc.join()
    merged = merge_snapshots(snapshots) if snapshots else {"timings": {}}
    stages = {
        stage: {
            "p50_ms": 1e3 * float(entry["quantiles"].get("p50", 0.0)),
            "p99_ms": 1e3 * float(entry["quantiles"].get("p99", 0.0)),
        }
        for stage, entry in merged["timings"].items()
    }
    ok = sum(1 for fix in fixes if fix.ok)
    return {
        "shards": num_shards,
        "time_s": elapsed,
        "fixes_total": len(fixes),
        "fixes_ok": ok,
        "fixes_per_s": ok / elapsed if elapsed > 0 else 0.0,
        "stages": stages,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--shards",
        default="1,2",
        help="comma-separated shard counts to benchmark (1 = baseline)",
    )
    parser.add_argument("--sources", type=int, default=4, help="concurrent targets")
    parser.add_argument("--packets", type=int, default=6, help="packets per fix")
    parser.add_argument(
        "--repeats", type=int, default=1, help="runs per cluster size (best-of)"
    )
    parser.add_argument(
        "--journal",
        type=int,
        default=512,
        help="router at-least-once journal depth per source in frames "
        "(the clean-path overhead knob; see --no-journal)",
    )
    parser.add_argument(
        "--no-journal",
        action="store_true",
        help="disable the replay journal (journal depth 0) — A/B this "
        "against the default to measure at-least-once overhead",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=0.0,
        help="fail unless largest/1-shard fixes-per-second ratio reaches this "
        "(0 disables; needs a multi-core machine to be meaningful)",
    )
    parser.add_argument(
        "--json",
        default=str(REPO_ROOT / "BENCH_dist.json"),
        help="where to write machine-readable results ('' disables)",
    )
    args = parser.parse_args(argv)
    shard_counts = sorted({int(s) for s in args.shards.split(",") if s.strip()})
    if 1 not in shard_counts:
        shard_counts.insert(0, 1)

    journal = 0 if args.no_journal else max(0, args.journal)
    testbed, names, traces = build_workload(args.sources, args.packets)
    print(
        f"workload: {args.sources} sources x {len(testbed.aps)} APs x "
        f"{args.packets} packets, {os.cpu_count()} CPUs, best of "
        f"{args.repeats}, journal depth {journal}"
    )

    rows: List[dict] = []
    for num_shards in shard_counts:
        best: Optional[dict] = None
        for _ in range(max(1, args.repeats)):
            row = run_cluster(
                num_shards,
                args.packets,
                names,
                traces,
                testbed,
                journal_max_frames=journal,
            )
            if best is None or row["time_s"] < best["time_s"]:
                best = row
        rows.append(best)

    baseline = rows[0]["fixes_per_s"] or float("nan")
    print(f"\n{'shards':>7} {'time (s)':>10} {'fixes ok':>9} {'fixes/s':>9} {'speedup':>8}")
    for row in rows:
        print(
            f"{row['shards']:>7} {row['time_s']:>10.3f} {row['fixes_ok']:>9} "
            f"{row['fixes_per_s']:>9.2f} {row['fixes_per_s'] / baseline:>7.2f}x"
        )

    result: Dict[str, object] = {
        "benchmark": "dist_throughput",
        "sources": args.sources,
        "packets_per_fix": args.packets,
        "journal_max_frames": journal,
        "cpus": os.cpu_count(),
        "rows": rows,
    }
    if args.json:
        Path(args.json).write_text(json.dumps(result, indent=2) + "\n")
        print(f"\nwrote {args.json}")

    if args.min_speedup > 0.0 and len(rows) > 1:
        speedup = rows[-1]["fixes_per_s"] / baseline
        if speedup < args.min_speedup:
            print(
                f"ERROR: {rows[-1]['shards']}-shard speedup {speedup:.2f}x "
                f"< required {args.min_speedup:.2f}x"
            )
            return 1
        print(f"speedup gate: {speedup:.2f}x >= {args.min_speedup:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
