"""The repo must pass its own analysis, and the CLI must gate correctly."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis.runner import run_analysis
from repro.analysis.rules import Linter

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"


def run_cli(*argv: str, cwd: Path = REPO_ROOT) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


class TestSelfLint:
    def test_src_repro_has_zero_lint_findings(self):
        assert Linter().lint_paths([str(SRC)]) == []

    def test_examples_and_benchmarks_are_clean_too(self):
        paths = [str(REPO_ROOT / "examples"), str(REPO_ROOT / "benchmarks")]
        assert Linter().lint_paths(paths) == []

    def test_run_analysis_reports_ok(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        report = run_analysis(["src/repro"], typing=True)
        assert report.ok, [f.format() for f in report.failures]
        assert report.failures == []


class TestCliGate:
    def test_strict_run_over_repo_exits_zero(self):
        proc = run_cli("--strict", "src/repro")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "OK" in proc.stdout

    def test_broken_fixture_exits_nonzero_with_rule_ids(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            textwrap.dedent(
                """
                import numpy as np

                def draw(x, acc=[]):
                    if x == 0.0:
                        return np.random.normal()
                    return acc
                """
            )
        )
        proc = run_cli(str(bad))
        assert proc.returncode == 1
        for rule_id in ("REP001", "REP003", "REP005"):
            assert rule_id in proc.stdout
        assert f"{bad}:" in proc.stdout  # file:line prefix

    def test_json_output_is_machine_readable(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("x = 1 == 1.0\n")
        proc = run_cli("--format", "json", str(bad))
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload[0]["rule_id"] == "REP005"
        assert payload[0]["line"] == 1

    def test_select_restricts_rules(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nx = np.random.normal()\ny = 1 == 1.0\n")
        proc = run_cli("--select", "REP005", str(bad))
        assert proc.returncode == 1
        assert "REP005" in proc.stdout
        assert "REP001" not in proc.stdout

    def test_list_rules_catalogues_every_rule(self):
        proc = run_cli("--list-rules")
        assert proc.returncode == 0
        for rule_id in (
            "REP001",
            "REP002",
            "REP003",
            "REP004",
            "REP005",
            "REP006",
            "REP007",
            "REP008",
            "REP009",
            "TYP001",
        ):
            assert rule_id in proc.stdout

    def test_clean_fixture_exits_zero(self, tmp_path):
        good = tmp_path / "good.py"
        good.write_text("import math\n\n\ndef near(x: float) -> bool:\n    return math.isclose(x, 0.0)\n")
        proc = run_cli(str(good))
        assert proc.returncode == 0

    def test_syntax_error_fixture_reports_rep000(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        proc = run_cli(str(bad))
        assert proc.returncode == 1
        assert "REP000" in proc.stdout


class TestContractsLaneSmoke:
    """The CI contracts lane: the pipeline must work with contracts ON."""

    def test_pipeline_stage_runs_under_enforcement(self):
        code = textwrap.dedent(
            """
            import numpy as np
            from repro.core.smoothing import smooth_csi
            from repro.core.sanitize import sanitize_csi

            out = smooth_csi(sanitize_csi(np.ones((3, 30), dtype=np.complex128)))
            assert out.dtype == np.complex128
            print("contracts-lane-ok")
            """
        )
        env = dict(
            os.environ, PYTHONPATH=str(REPO_ROOT / "src"), REPRO_CONTRACTS="1"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "contracts-lane-ok" in proc.stdout

    def test_enforced_stage_rejects_bad_shape_in_subprocess(self):
        code = textwrap.dedent(
            """
            import numpy as np
            from repro.core.smoothing import smooth_csi
            from repro.errors import ContractError

            try:
                smooth_csi(np.ones(30, dtype=np.complex128))
            except ContractError as exc:
                assert "csi" in str(exc)
                print("contract-error-raised")
            """
        )
        env = dict(
            os.environ, PYTHONPATH=str(REPO_ROOT / "src"), REPRO_CONTRACTS="1"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "contract-error-raised" in proc.stdout
