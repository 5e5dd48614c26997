"""Benchmark self-test: every workload at its smallest size.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Each workload runs untraced and traced with ``--smoke`` (fewest targets
or sources, one set-up, one second).  Every end-to-end and per-layer
metric named in ``BENCHMARK.json`` must come out with its unit and a
sample count, next to the attempted and failed counts.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3

#: Per-layer metrics each workload's requests must reach (samples > 0).
REACHED = {
    "office-music": [
        "core.sanitize.ms",
        "core.smooth.ms",
        "core.music.subspace.ms",
        "core.music.spectrum.ms",
        "core.music.spectrum.mflop",
        "core.peaks.ms",
        "core.cluster.ms",
        "core.solve.ms",
        "runtime.cache.hit_ratio",
        "obs.trace_overhead_ratio",
    ],
    "office-esprit": [
        "core.esprit.ms",
        "core.cluster.ms",
        "core.cluster.usable_ratio",
        "core.solve.ms",
        "obs.trace_overhead_ratio",
    ],
    "serve-sharded": [
        "estimators.tof.ms",
        "server.fix.ms",
        "server.accept_ratio",
        "dist.router.ingest.ms",
        "dist.router.flush.ms",
        "dist.protocol.encode.us",
        "dist.protocol.decode.us",
        "dist.protocol.bytes_per_fix",
        "dist.queue_wait.ms",
        "dist.failover.count",
        "dist.dedup.duplicates",
        "load.lag_p99_ms",
        "core.solve.ms",
    ],
}


def _run(args, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(tmp_path: Path, workload: str, trace: int) -> None:
    proc = _run(
        [
            "perfbench/run.py",
            "--workload", workload,
            "--seed", str(SEED),
            "--seconds", "1",
            "--trace", str(trace),
            "--smoke",
            "--out", str(tmp_path),
        ],
        ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert 0 <= result["failed"] <= result["attempted"]

    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    report = json.loads((tmp_path / f"{workload}-{SEED}-trace{trace}.json").read_text())
    assert report["attempted"] == result["attempted"]
    assert report["failed"] == result["failed"]
    for key in ("nproc", "cpu_model", "blas", "blas_threads", "numpy", "scipy",
                "python", "git_sha", "seed"):
        assert key in report["machine"]
    assert set(report["machine"]["blas_threads"].values()) == {"1"}
    for metric in wanted:
        name = metric["name"]
        row = report["metrics"][name]
        assert row["unit"] == metric["unit"] == result["metrics"][name]["unit"]
        assert row["value"] == result["metrics"][name]["value"]
        assert isinstance(row["samples"], int) and row["samples"] >= 0
        if not trace:
            assert row["samples"] >= 1, name
            assert row["value"] > 0, name
    if trace:
        for name in REACHED[workload] + ["host.probe.ms"]:
            assert report["metrics"][name]["samples"] > 0, name
        spans = (tmp_path / f"spans-{workload}-{SEED}.jsonl").read_text().splitlines()
        assert spans and {"id", "name", "parent", "start", "end"} <= set(json.loads(spans[0]))


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    """Only BENCHMARK.json and the benchmark: exit non-zero, print no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    proc = _run(
        ["perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_a_failed_check_fails_the_run(tmp_path: Path, capsys) -> None:
    sys.path.insert(0, str(BENCH))
    try:
        import report
        from ledger import Ledger, Metrics
    finally:
        sys.path.remove(str(BENCH))
    metrics = Metrics()
    for metric in SPEC["end_to_end"]:
        metrics.put(metric["name"], 1.0, metric["unit"], 1)
    outcome = {
        "metrics": metrics,
        "checks": ["served fix differs"],
        "attempted": 1,
        "failed": 0,
        "ledger": Ledger(),
    }
    args = Namespace(workload=WORKLOADS[0], seed=1, seconds=1.0, trace=0, smoke=True)
    assert report.emit(args, outcome, ROOT, tmp_path) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
