"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main, render_floorplan
from repro.testbed.layout import office_testbed, small_testbed


class TestSimulateAndLocate:
    def test_simulate_inspect_locate_round_trip(self, tmp_path, capsys):
        out = tmp_path / "capture.npz"
        rc = main(
            [
                "simulate",
                str(out),
                "--testbed",
                "small",
                "--packets",
                "10",
                "--seed",
                "3",
            ]
        )
        assert rc == 0
        assert out.exists()
        text = capsys.readouterr().out
        assert "4 AP traces" in text

        rc = main(["inspect", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "APs      : 4" in text
        assert "10 packets" in text

        rc = main(
            ["locate", str(out), "--testbed", "small", "--packets", "10"]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "SpotFi fix" in text
        assert "SpotFi error" in text

    def test_locate_with_arraytrack(self, tmp_path, capsys):
        out = tmp_path / "c.npz"
        main(["simulate", str(out), "--testbed", "small", "--packets", "8"])
        capsys.readouterr()
        rc = main(
            [
                "locate",
                str(out),
                "--testbed",
                "small",
                "--packets",
                "8",
                "--arraytrack",
            ]
        )
        assert rc == 0
        assert "ArrayTrack fix" in capsys.readouterr().out

    def test_locate_with_esprit(self, tmp_path, capsys):
        out = tmp_path / "c.npz"
        main(["simulate", str(out), "--testbed", "small", "--packets", "8"])
        capsys.readouterr()
        rc = main(
            [
                "locate",
                str(out),
                "--testbed",
                "small",
                "--packets",
                "8",
                "--estimation",
                "esprit",
            ]
        )
        assert rc == 0

    def test_simulate_by_label(self, tmp_path, capsys):
        out = tmp_path / "c.npz"
        rc = main(
            [
                "simulate",
                str(out),
                "--testbed",
                "small",
                "--target-label",
                "t-02",
                "--packets",
                "5",
            ]
        )
        assert rc == 0

    def test_simulate_unknown_label_fails_cleanly(self, tmp_path, capsys):
        rc = main(
            [
                "simulate",
                str(tmp_path / "c.npz"),
                "--testbed",
                "small",
                "--target-label",
                "nope",
            ]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_locate_missing_dataset_fails_cleanly(self, tmp_path, capsys):
        rc = main(["locate", str(tmp_path / "missing.npz")])
        assert rc == 2

    def test_locate_with_workers(self, tmp_path, capsys):
        out = tmp_path / "c.npz"
        main(["simulate", str(out), "--testbed", "small", "--packets", "4"])
        capsys.readouterr()
        rc = main(
            [
                "locate",
                str(out),
                "--testbed",
                "small",
                "--packets",
                "4",
                "--workers",
                "2",
            ]
        )
        assert rc == 0
        assert "SpotFi fix" in capsys.readouterr().out


class TestServe:
    def test_serve_replays_dataset(self, tmp_path, capsys):
        out = tmp_path / "c.npz"
        main(["simulate", str(out), "--testbed", "small", "--packets", "8"])
        capsys.readouterr()
        rc = main(
            [
                "serve",
                str(out),
                "--testbed",
                "small",
                "--packets",
                "8",
                "--max-buffer",
                "8",
                "--max-age",
                "10",
            ]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "fix #1" in text
        assert "runtime counters" in text
        assert "ingest.accepted" in text

    def test_serve_prints_exposition_on_exit(self, tmp_path, capsys):
        out = tmp_path / "c.npz"
        main(["simulate", str(out), "--testbed", "small", "--packets", "8"])
        capsys.readouterr()
        rc = main(["serve", str(out), "--testbed", "small", "--packets", "8"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "--- metrics exposition ---" in text
        # The shared RuntimeMetrics means the executor's estimate stage
        # shows up next to the server's fix accounting.
        assert 'repro_stage_duration_seconds_bucket{stage="estimate"' in text
        assert 'repro_stage_duration_seconds_bucket{stage="fix"' in text
        assert "repro_steering_cache_hit_rate" in text


class TestTrace:
    def test_trace_covers_every_stage(self, tmp_path, capsys):
        out = tmp_path / "c.npz"
        main(["simulate", str(out), "--testbed", "small", "--packets", "6"])
        capsys.readouterr()
        rc = main(["trace", str(out), "--testbed", "small", "--packets", "6"])
        assert rc == 0
        text = capsys.readouterr().out
        for stage in ("locate", "ap[0]", "sanitize", "smooth", "music", "cluster", "solve"):
            assert stage in text, f"span tree missing stage {stage}"
        assert "fix: (" in text

    def test_trace_jsonl_round_trip(self, tmp_path, capsys):
        from repro.obs import load_spans

        out = tmp_path / "c.npz"
        spans_path = tmp_path / "spans.jsonl"
        main(["simulate", str(out), "--testbed", "small", "--packets", "6"])
        capsys.readouterr()
        rc = main(
            [
                "trace",
                str(out),
                "--testbed",
                "small",
                "--packets",
                "6",
                "--artifacts",
                "--jsonl",
                str(spans_path),
            ]
        )
        assert rc == 0
        (root,) = load_spans(spans_path)
        assert root.name == "locate"
        names = {s.name for s in root.iter_spans()}
        assert {"sanitize", "smooth", "music", "cluster", "solve"} <= names
        # --artifacts captures a downsampled pseudospectrum per AP.
        (music,) = root.children[0].find("music")
        assert "pseudospectrum" in music.attributes
        assert "power_db" in music.attributes["pseudospectrum"]

    def test_trace_matches_untraced_fix(self, tmp_path, capsys):
        out = tmp_path / "c.npz"
        main(["simulate", str(out), "--testbed", "small", "--packets", "6"])
        capsys.readouterr()
        main(["locate", str(out), "--testbed", "small", "--packets", "6"])
        untraced = capsys.readouterr().out
        main(["trace", str(out), "--testbed", "small", "--packets", "6"])
        traced = capsys.readouterr().out
        # Same position to the printed precision: tracing must not
        # perturb the numerics.
        plain = untraced.split("SpotFi fix")[1].splitlines()[0]
        assert plain.split(":")[1].strip().rstrip("m").strip() in traced


class TestMetricsCommand:
    def test_metrics_prints_exposition(self, tmp_path, capsys):
        out = tmp_path / "c.npz"
        main(["simulate", str(out), "--testbed", "small", "--packets", "6"])
        capsys.readouterr()
        rc = main(["metrics", str(out), "--testbed", "small", "--packets", "6"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "# TYPE repro_stage_duration_seconds histogram" in text
        assert 'le="+Inf"' in text
        assert 'quantile="0.99"' in text
        assert "repro_steering_cache_hit_rate" in text

    def test_metrics_with_parallel_workers(self, tmp_path, capsys):
        out = tmp_path / "c.npz"
        main(["simulate", str(out), "--testbed", "small", "--packets", "6"])
        capsys.readouterr()
        rc = main(
            [
                "metrics",
                str(out),
                "--testbed",
                "small",
                "--packets",
                "6",
                "--workers",
                "2",
            ]
        )
        assert rc == 0
        text = capsys.readouterr().out
        # Worker histograms merged back: the per-item count covers every
        # packet even though the parent recorded a single batch.
        count_line = next(
            l
            for l in text.splitlines()
            if l.startswith('repro_stage_duration_seconds_count{stage="estimate"}')
        )
        assert int(float(count_line.rsplit(" ", 1)[1])) == 24


class TestFloorplan:
    def test_floorplan_command(self, capsys):
        rc = main(["floorplan", "--testbed", "small", "--width", "60"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "#" in text  # walls rendered
        assert "A" in text  # APs rendered
        assert "4 targets, 4 APs" in text

    def test_render_contains_all_marker_kinds(self):
        art = render_floorplan(office_testbed(), cols=90, rows=26)
        for marker in "#*oA":
            assert marker in art

    def test_render_dimensions(self):
        art = render_floorplan(small_testbed(), cols=50, rows=20)
        lines = art.splitlines()
        assert len(lines) == 21  # 20 rows + legend
        assert all(len(line) == 50 for line in lines[:20])


class TestUsageErrors:
    def test_locate_zero_packets_exits_2(self, tmp_path, capsys):
        out = tmp_path / "c.npz"
        main(["simulate", str(out), "--testbed", "small", "--packets", "4"])
        capsys.readouterr()
        rc = main(["locate", str(out), "--testbed", "small", "--packets", "0"])
        assert rc == 2
        assert "error: packets_per_fix must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("width", ["0", "-5"])
    def test_floorplan_nonpositive_width_exits_2(self, width, capsys):
        rc = main(["floorplan", "--testbed", "small", "--width", width])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("coordinate", ["--x", "--y"])
    def test_simulate_needs_both_coordinates(self, coordinate, tmp_path, capsys):
        out = tmp_path / "c.npz"
        rc = main(["simulate", str(out), "--testbed", "small", coordinate, "3"])
        assert rc == 2
        assert "error: --x and --y must be given together" in capsys.readouterr().err
        assert not out.exists()


# Every subcommand's parsed namespace (minus ``func``): the required
# arguments alone, then each optional flag set once on top of them.
# Recorded from the parser before it became table-driven, so any drift
# in a dest, default, type or choice of any option shows up here.
CLI_PARITY = {
    "simulate": (
        ["output.npz"],
        {
            "command": "simulate",
            "output": "output.npz",
            "testbed": "office",
            "target_label": "",
            "x": None,
            "y": None,
            "packets": 40,
            "seed": 0,
        },
        [
            (["--testbed", "home"], {"testbed": "home"}),
            (["--target-label", "xtarget-label"], {"target_label": "xtarget-label"}),
            (["--x", "2.5"], {"x": 2.5}),
            (["--y", "2.5"], {"y": 2.5}),
            (["--packets", "3"], {"packets": 3}),
            (["--seed", "3"], {"seed": 3}),
        ],
    ),
    "locate": (
        ["dataset.npz"],
        {
            "command": "locate",
            "dataset": "dataset.npz",
            "testbed": "office",
            "packets": 40,
            "estimation": "music",
            "estimator": "",
            "arraytrack": False,
            "workers": 1,
        },
        [
            (["--testbed", "home"], {"testbed": "home"}),
            (["--packets", "3"], {"packets": 3}),
            (["--estimation", "esprit"], {"estimation": "esprit"}),
            (["--estimator", "xestimator"], {"estimator": "xestimator"}),
            (["--arraytrack"], {"arraytrack": True}),
            (["--workers", "3"], {"workers": 3}),
        ],
    ),
    "serve": (
        ["dataset.npz"],
        {
            "command": "serve",
            "dataset": "dataset.npz",
            "testbed": "office",
            "packets": 10,
            "min_aps": 2,
            "track": False,
            "workers": 1,
            "max_buffer": 0,
            "overflow_policy": "drop-oldest",
            "max_age": 0.0,
            "shards": 1,
            "bind": "",
            "sources": 1,
            "estimator": "",
            "downgrade_tier": "",
            "http_port": 0,
            "sample_rate": 1.0,
            "trace_dir": "",
            "ready_timeout": 30.0,
            "connect_timeout": 0.0,
        },
        [
            (["--testbed", "home"], {"testbed": "home"}),
            (["--packets", "3"], {"packets": 3}),
            (["--min-aps", "3"], {"min_aps": 3}),
            (["--track"], {"track": True}),
            (["--workers", "3"], {"workers": 3}),
            (["--max-buffer", "3"], {"max_buffer": 3}),
            (["--overflow-policy", "drop-newest"], {"overflow_policy": "drop-newest"}),
            (["--max-age", "2.5"], {"max_age": 2.5}),
            (["--shards", "3"], {"shards": 3}),
            (["--bind", "xbind"], {"bind": "xbind"}),
            (["--sources", "3"], {"sources": 3}),
            (["--estimator", "xestimator"], {"estimator": "xestimator"}),
            (
                ["--downgrade-tier", "xdowngrade-tier"],
                {"downgrade_tier": "xdowngrade-tier"},
            ),
            (["--http-port", "3"], {"http_port": 3}),
            (["--sample-rate", "2.5"], {"sample_rate": 2.5}),
            (["--trace-dir", "xtrace-dir"], {"trace_dir": "xtrace-dir"}),
            (["--ready-timeout", "2.5"], {"ready_timeout": 2.5}),
            (["--connect-timeout", "2.5"], {"connect_timeout": 2.5}),
        ],
    ),
    "shard": (
        ["--bind", "tcp:127.0.0.1:7000"],
        {
            "command": "shard",
            "bind": "tcp:127.0.0.1:7000",
            "id": "shard0",
            "testbed": "small",
            "packets": 8,
            "min_aps": 2,
            "workers": 1,
            "max_buffer": 0,
            "overflow_policy": "drop-oldest",
            "max_age": 0.0,
            "breaker_threshold": 0,
            "breaker_recovery": 10.0,
            "estimator": "",
            "downgrade_tier": "",
            "http_port": 0,
            "sample_rate": 1.0,
            "trace_dir": "",
        },
        [
            (["--id", "xid"], {"id": "xid"}),
            (["--testbed", "home"], {"testbed": "home"}),
            (["--packets", "3"], {"packets": 3}),
            (["--min-aps", "3"], {"min_aps": 3}),
            (["--workers", "3"], {"workers": 3}),
            (["--max-buffer", "3"], {"max_buffer": 3}),
            (["--overflow-policy", "drop-newest"], {"overflow_policy": "drop-newest"}),
            (["--max-age", "2.5"], {"max_age": 2.5}),
            (["--breaker-threshold", "3"], {"breaker_threshold": 3}),
            (["--breaker-recovery", "2.5"], {"breaker_recovery": 2.5}),
            (["--estimator", "xestimator"], {"estimator": "xestimator"}),
            (
                ["--downgrade-tier", "xdowngrade-tier"],
                {"downgrade_tier": "xdowngrade-tier"},
            ),
            (["--http-port", "3"], {"http_port": 3}),
            (["--sample-rate", "2.5"], {"sample_rate": 2.5}),
            (["--trace-dir", "xtrace-dir"], {"trace_dir": "xtrace-dir"}),
        ],
    ),
    "trace": (
        [],
        {
            "command": "trace",
            "dataset": "",
            "merge": "",
            "testbed": "office",
            "packets": 40,
            "estimation": "music",
            "artifacts": False,
            "jsonl": "",
        },
        [
            (["dataset.npz"], {"dataset": "dataset.npz"}),
            (["--merge", "xmerge"], {"merge": "xmerge"}),
            (["--testbed", "home"], {"testbed": "home"}),
            (["--packets", "3"], {"packets": 3}),
            (["--estimation", "esprit"], {"estimation": "esprit"}),
            (["--artifacts"], {"artifacts": True}),
            (["--jsonl", "xjsonl"], {"jsonl": "xjsonl"}),
        ],
    ),
    "metrics": (
        [],
        {
            "command": "metrics",
            "dataset": "",
            "from_shards": "",
            "testbed": "office",
            "packets": 40,
            "repeats": 1,
            "workers": 1,
        },
        [
            (["dataset.npz"], {"dataset": "dataset.npz"}),
            (["--from-shards", "xfrom-shards"], {"from_shards": "xfrom-shards"}),
            (["--testbed", "home"], {"testbed": "home"}),
            (["--packets", "3"], {"packets": 3}),
            (["--repeats", "3"], {"repeats": 3}),
            (["--workers", "3"], {"workers": 3}),
        ],
    ),
    "chaos": (
        [],
        {
            "command": "chaos",
            "scenario": "mixed",
            "testbed": "small",
            "seed": 7,
            "packets": 8,
            "bursts": 4,
            "min_aps": 2,
            "min_success": 90.0,
            "json": False,
        },
        [
            (["--scenario", "blackout"], {"scenario": "blackout"}),
            (["--testbed", "home"], {"testbed": "home"}),
            (["--seed", "3"], {"seed": 3}),
            (["--packets", "3"], {"packets": 3}),
            (["--bursts", "3"], {"bursts": 3}),
            (["--min-aps", "3"], {"min_aps": 3}),
            (["--min-success", "2.5"], {"min_success": 2.5}),
            (["--json"], {"json": True}),
        ],
    ),
    "inspect": (
        ["dataset.npz"],
        {
            "command": "inspect",
            "dataset": "dataset.npz",
        },
        [],
    ),
    "floorplan": (
        [],
        {
            "command": "floorplan",
            "testbed": "office",
            "width": 90,
        },
        [
            (["--testbed", "home"], {"testbed": "home"}),
            (["--width", "3"], {"width": 3}),
        ],
    ),
}


class TestParserParity:
    @pytest.mark.parametrize("command", sorted(CLI_PARITY))
    def test_namespaces_match_recorded_literals(self, command):
        base, defaults, flags = CLI_PARITY[command]
        for argv, changed in [([], {})] + flags:
            args = build_parser().parse_args([command] + base + argv)
            namespace = vars(args)
            namespace.pop("func")
            assert namespace == {**defaults, **changed}, argv

    def test_every_subcommand_is_recorded(self):
        parser = build_parser()
        (sub,) = [a for a in parser._actions if a.dest == "command"]
        assert sorted(sub.choices) == sorted(CLI_PARITY)

    @pytest.mark.parametrize(
        "argv",
        [["simulate"], ["locate"], ["serve"], ["shard"], ["inspect"]],
    )
    def test_required_arguments_stay_required(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
