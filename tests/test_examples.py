"""Smoke tests for the example scripts.

Each example runs end-to-end (smallest workload) so the documented entry
points cannot silently rot.  Output goes through capsys; basic content
assertions confirm each example exercised its subject.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"


def run_example(name: str, argv, monkeypatch):
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(f"example_{name[:-3]}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "argv", [name, *argv])
    spec.loader.exec_module(module)
    module.main()


class TestExamples:
    def test_quickstart(self, monkeypatch, capsys):
        run_example("quickstart.py", [], monkeypatch)
        out = capsys.readouterr().out
        assert "estimated position" in out
        assert "localization error" in out

    def test_office_localization(self, monkeypatch, capsys):
        run_example(
            "office_localization.py",
            ["--locations", "1", "--packets", "8"],
            monkeypatch,
        )
        out = capsys.readouterr().out
        assert "SpotFi" in out and "ArrayTrack" in out
        assert "CDF q" in out

    def test_device_tracking(self, monkeypatch, capsys):
        run_example("device_tracking.py", ["--packets", "5"], monkeypatch)
        out = capsys.readouterr().out
        assert "Kalman filtered" in out
        assert "velocity" in out

    def test_direct_path_analysis(self, monkeypatch, capsys):
        run_example("direct_path_analysis.py", ["--packets", "8"], monkeypatch)
        out = capsys.readouterr().out
        assert "SpotFi pick" in out
        assert "Oracle" in out

    def test_csi_dataset_tools(self, monkeypatch, capsys, tmp_path):
        run_example(
            "csi_dataset_tools.py",
            ["--outdir", str(tmp_path), "--packets", "6"],
            monkeypatch,
        )
        out = capsys.readouterr().out
        assert "re-localized from npz" in out
        assert "re-localized from csitool .dat" in out
        assert (tmp_path / "capture.npz").exists()
        assert (tmp_path / "ap0.dat").exists()

    def test_chain_calibration(self, monkeypatch, capsys):
        run_example("chain_calibration.py", [], monkeypatch)
        out = capsys.readouterr().out
        assert "uncalibrated localization error" in out
        assert "calibrated localization error" in out

    def test_home_server(self, monkeypatch, capsys):
        run_example("home_server.py", [], monkeypatch)
        out = capsys.readouterr().out
        assert "phone" in out and "laptop" in out
        assert "per-device fix counts" in out

    def test_telemetry_smoke(self, monkeypatch, capsys):
        run_example(
            "telemetry_smoke.py", ["--packets", "6", "--sources", "1"], monkeypatch
        )
        out = capsys.readouterr().out
        assert "HELP/TYPE ok" in out
        assert "/healthz: ok" in out
        assert "router->shard process boundary" in out
        assert "telemetry smoke OK" in out
