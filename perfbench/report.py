"""Printing and saving one run's result against ``BENCHMARK.json``."""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List

from ledger import machine_stamp


def emit(args, outcome: dict, root: Path, out_dir: Path) -> int:
    """Print the table and the result line, write the report; exit code."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = outcome["metrics"].values
    checks: List[str] = list(outcome["checks"])
    rows: Dict[str, Dict[str, object]] = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        if name in measured:
            value, got_unit, samples = measured[name]
            if got_unit != unit:
                checks.append(f"{name}: measured in {got_unit}, declared {unit}")
        elif args.trace:
            # A layer this workload's requests never reach.
            value, samples = 0.0, 0
        else:
            raise KeyError(f"end-to-end metric {name} was not measured")
        if not math.isfinite(value):
            checks.append(f"{name} is not finite")
            value = 0.0
        rows[name] = {"value": value, "unit": unit, "samples": samples}
        if name in outcome["metrics"].raw:
            rows[name]["as_measured"] = outcome["metrics"].raw[name]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"{'metric':<32} {'value':>14} {'unit':<8} {'samples':>8} {'as measured':>14}")
    for name, row in rows.items():
        measured = f"{row['as_measured']:>14.6g}" if "as_measured" in row else ""
        print(
            f"{name:<32} {row['value']:>14.6g} {row['unit']:<8} {row['samples']:>8} "
            f"{measured}"
        )
    print(f"attempted {outcome['attempted']}  failed {outcome['failed']}")
    machine = machine_stamp(root, args.seed)
    print(
        "machine: {nproc} cpus ({cpu_model}), {blas} {blas_version} "
        "threads={threads}, numpy {numpy}, scipy {scipy}, python {python}, "
        "git {git_sha}".format(
            threads=",".join(sorted(set(machine["blas_threads"].values()))), **machine
        )
    )
    for problem in checks:
        print(f"CHECK FAILED: {problem}")

    stem = f"{args.workload}-{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "machine": machine,
        "correct": not checks,
        "checks": checks,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": rows,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
    if args.trace:
        outcome["ledger"].write(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
    print(
        json.dumps(
            {
                "correct": not checks,
                "attempted": int(outcome["attempted"]),
                "failed": int(outcome["failed"]),
                "metrics": {
                    name: {"value": row["value"], "unit": row["unit"]}
                    for name, row in rows.items()
                },
            }
        )
    )
    return 0 if not checks else 1
