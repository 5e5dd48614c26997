"""Accuracy/latency frontier for the pluggable estimator registry.

Runs every requested estimator over the same testbed targets through
``SpotFi.locate(..., estimator=name)`` and reports, per estimator, the
median localization error and the median end-to-end fix latency — the
frontier the QoS tiers (``precise``/``balanced``/``coarse``) are drawn
from.  The acceptance contract pinned here: the mD-Track-style balanced
tier must fix at least 5x faster than full 2-D MUSIC with median error
within 2x of it.

Run standalone (plain script, like ``bench_runtime.py``, so CI can
smoke it on a tiny grid):

    PYTHONPATH=src python benchmarks/bench_estimators.py
    PYTHONPATH=src python benchmarks/bench_estimators.py \
        --testbed small --targets 2 --packets 6 --repeats 1

Results are written to ``BENCH_estimators.json`` at the repo root;
disable with ``--json ''``.  ``--check`` additionally fails the run if
any estimator errors or the mdtrack-vs-music2d frontier contract is
violated (only meaningful on the full office grid).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.core.pipeline import SpotFi, SpotFiConfig
from repro.estimators import available, tier_of
from repro.testbed.layout import TESTBEDS, testbed_by_name

SEED = 20150817  # SIGCOMM'15 presentation date, like the figure benches
REPO_ROOT = Path(__file__).resolve().parent.parent

#: Default roster: the full built-in frontier, cheap to precise.
DEFAULT_ESTIMATORS = "music2d,esprit,mdtrack,music-aoa,arraytrack,tof"

#: Keys every per-estimator row must carry (the CI schema check).
ROW_SCHEMA = (
    "name",
    "tier",
    "fixes",
    "median_error_m",
    "median_fix_latency_ms",
)


def build_bursts(testbed_name: str, num_targets: int, packets: int):
    """One multi-AP burst per target, identical across estimators."""
    tb = testbed_by_name(testbed_name)
    sim = tb.simulator()
    rng = np.random.default_rng(SEED)
    bursts = []
    for spot in tb.targets[: max(1, num_targets)]:
        pairs = [
            (ap, sim.generate_trace(spot.position, ap, packets, rng=rng))
            for ap in tb.aps
        ]
        bursts.append((spot, pairs))
    return tb, sim, bursts


def run_estimator(name, tb, sim, bursts, packets: int, repeats: int) -> Dict[str, object]:
    """Median error/latency for one estimator over every burst."""
    spotfi = SpotFi(
        sim.grid,
        bounds=tb.bounds,
        config=SpotFiConfig(packets_per_fix=packets),
        rng=np.random.default_rng(0),
    )
    errors: List[float] = []
    latencies: List[float] = []
    for spot, pairs in bursts:
        best = float("inf")
        fix = None
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            fix = spotfi.locate(pairs, estimator=name)
            best = min(best, time.perf_counter() - start)
        errors.append(fix.error_to(spot.position))
        latencies.append(best)
    return {
        "name": name,
        "tier": tier_of(name),
        "fixes": len(errors),
        "median_error_m": float(np.median(errors)),
        "median_fix_latency_ms": 1e3 * float(np.median(latencies)),
    }


def check_frontier(rows: List[Dict[str, object]]) -> List[str]:
    """The acceptance contract on the full grid; returns failure messages."""
    failures = []
    if len(rows) < 4:
        failures.append(f"only {len(rows)} estimators ran; need >= 4")
    by_name = {row["name"]: row for row in rows}
    music2d = by_name.get("music2d")
    mdtrack = by_name.get("mdtrack")
    if music2d and mdtrack:
        speedup = music2d["median_fix_latency_ms"] / max(
            mdtrack["median_fix_latency_ms"], 1e-9
        )
        if speedup < 5.0:
            failures.append(
                f"mdtrack only {speedup:.1f}x faster than music2d; need >= 5x"
            )
        ratio = mdtrack["median_error_m"] / max(music2d["median_error_m"], 1e-9)
        if ratio > 2.0:
            failures.append(
                f"mdtrack error {ratio:.2f}x music2d's; must stay within 2x"
            )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--testbed", default="office", choices=sorted(TESTBEDS))
    parser.add_argument("--targets", type=int, default=8, help="targets to localize")
    parser.add_argument("--packets", type=int, default=8, help="packets per fix")
    parser.add_argument(
        "--repeats", type=int, default=2, help="locates per burst (best-of)"
    )
    parser.add_argument(
        "--estimators",
        default=DEFAULT_ESTIMATORS,
        help="comma-separated registry names ('all' = every registered)",
    )
    parser.add_argument(
        "--json",
        default=str(REPO_ROOT / "BENCH_estimators.json"),
        help="where to write machine-readable results ('' disables)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail unless the mdtrack-vs-music2d frontier contract holds",
    )
    args = parser.parse_args(argv)
    if args.estimators == "all":
        names = available()
    else:
        names = [n.strip() for n in args.estimators.split(",") if n.strip()]

    tb, sim, bursts = build_bursts(args.testbed, args.targets, args.packets)
    print(
        f"frontier: {len(names)} estimators x {len(bursts)} targets "
        f"({args.testbed} testbed, {args.packets} packets per fix)"
    )
    rows: List[Dict[str, object]] = []
    errored: List[str] = []
    for name in names:
        try:
            row = run_estimator(name, tb, sim, bursts, args.packets, args.repeats)
        except Exception as exc:  # repro: noqa REP002 - collected, gates exit code
            errored.append(f"{name}: {type(exc).__name__}: {exc}")
            print(f"{name:>10}  ERROR {type(exc).__name__}: {exc}")
            continue
        rows.append(row)
        print(
            f"{name:>10}  tier={row['tier']:<8} "
            f"median err {row['median_error_m']:6.2f} m   "
            f"median fix {row['median_fix_latency_ms']:8.1f} ms"
        )

    missing = [
        f"{row['name']} missing keys {sorted(set(ROW_SCHEMA) - set(row))}"
        for row in rows
        if set(ROW_SCHEMA) - set(row)
    ]
    if args.json:
        result = {
            "benchmark": "estimator_frontier",
            "testbed": args.testbed,
            "targets": len(bursts),
            "packets_per_fix": args.packets,
            "estimators": rows,
        }
        Path(args.json).write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {args.json}")

    failures = errored + missing
    if args.check:
        failures += check_frontier(rows)
    elif errored or missing:
        pass  # already collected
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
