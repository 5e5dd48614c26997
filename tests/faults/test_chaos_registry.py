"""The chaos scenario registry: its gate, its entry-point checks, its CI wiring.

The gate tests build synthetic reports and spawn nothing; the
``moving-target`` drill at the end runs real tracking shards.
"""

import re
from pathlib import Path

import pytest

from repro import cli
from repro.dist import chaos
from repro.dist.chaos import SCENARIOS, ChaosReport, gate, run_chaos
from repro.errors import ConfigurationError

CI_WORKFLOW = Path(__file__).resolve().parents[2] / ".github" / "workflows" / "ci.yml"

VERDICTS = [
    (name, verdict) for name, entry in SCENARIOS.items() for verdict in entry.verdicts
]


def report_for(scenario, fixes_ok=3, **values):
    """A synthetic report; ``values`` set report fields or ``injected`` keys."""
    fields = {k: v for k, v in values.items() if k in ChaosReport.__dataclass_fields__}
    injected = {k: v for k, v in values.items() if k not in fields}
    return ChaosReport(
        scenario=scenario,
        testbed="small",
        seed=7,
        bursts=3,
        fixes_attempted=3,
        fixes_ok=fixes_ok,
        degraded_fixes=0,
        median_error_m=0.5,
        injected=injected,
        **fields,
    )


def compliant_values(scenario):
    return {v.key: v.at_least for v in SCENARIOS[scenario].verdicts}


class TestGate:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_compliant_report_passes(self, scenario):
        assert gate(report_for(scenario, **compliant_values(scenario)), 90.0) == []

    @pytest.mark.parametrize(
        "scenario,verdict", VERDICTS, ids=[f"{n}-{v.key}" for n, v in VERDICTS]
    )
    def test_each_violated_verdict_returns_its_message(self, scenario, verdict):
        bad = verdict.at_least - 1 if verdict.at_most is None else verdict.at_most + 1
        values = dict(compliant_values(scenario), **{verdict.key: bad})
        assert gate(report_for(scenario, **values), 90.0) == [
            verdict.message.format(value=bad)
        ]

    def test_success_floor(self):
        report = report_for("clean", fixes_ok=2)
        assert gate(report, 90.0) == ["fix success rate 67% below threshold 90%"]
        assert gate(report, 50.0) == []

    def test_missing_injected_key_reads_as_zero(self):
        assert gate(report_for("reset-storm"), 90.0) == [
            "no journaled frames were replayed — the scenario never "
            "exercised at-least-once failover"
        ]


class TestCliGate:
    """``repro chaos`` prints every gate failure and exits 1."""

    @pytest.mark.parametrize(
        "report,expected",
        [
            (
                report_for("mixed", fixes_ok=2),
                ["FAIL: fix success rate 67% below threshold 90%"],
            ),
            (
                report_for("downgrade"),
                [
                    "FAIL: breaker trip produced no downgraded fixes — the "
                    "downgrade path shed load instead of switching tiers"
                ],
            ),
            (
                report_for("moving-target", cold_restarts=2, duplicate_track_ids=1),
                [
                    "FAIL: no track resumed across the shard kill — the "
                    "failover never exercised checkpoint handoff",
                    "FAIL: 2 track(s) restarted cold on the successor instead "
                    "of resuming from the checkpoint",
                    "FAIL: 1 duplicate track id(s) — a source was tracked "
                    "under more than one identity",
                ],
            ),
            (
                report_for("slow-link", unrouted_sources=1, excess_fixes=3),
                [
                    "FAIL: no journaled frames were replayed — the scenario "
                    "never exercised at-least-once failover",
                    "FAIL: 1 source(s) ended the run routed to a dead shard",
                    "FAIL: 3 fix(es) beyond the delivered packet budget — "
                    "redelivered frames were double-counted instead of "
                    "deduplicated",
                ],
            ),
        ],
        ids=["success-floor", "downgrade", "moving-target", "network"],
    )
    def test_failures_printed_and_exit_1(self, monkeypatch, capsys, report, expected):
        monkeypatch.setattr(cli, "run_chaos", lambda **kwargs: report)
        assert cli.main(["chaos", "--scenario", report.scenario]) == 1
        assert capsys.readouterr().err.splitlines() == expected

    def test_passing_report_exits_0(self, monkeypatch, capsys):
        report = report_for("crash-restart", replayed=4)
        monkeypatch.setattr(cli, "run_chaos", lambda **kwargs: report)
        assert cli.main(["chaos", "--scenario", "crash-restart"]) == 0
        assert capsys.readouterr().err == ""


class TestEntryPoint:
    @pytest.mark.parametrize("scenario", ["clean", "shard-kill"])
    def test_bursts_below_one_rejected_before_anything_runs(
        self, monkeypatch, scenario
    ):
        def no_shards(*args, **kwargs):
            raise AssertionError("a shard process was started")

        monkeypatch.setattr(chaos, "start_shards", no_shards)
        with pytest.raises(ConfigurationError, match="bursts must be >= 1"):
            run_chaos(scenario, bursts=0)

    def test_cli_reports_bad_bursts_as_usage_error(self, capsys):
        assert cli.main(["chaos", "--scenario", "clean", "--bursts", "-2"]) == 2
        assert "error: bursts must be >= 1" in capsys.readouterr().err

    def test_unknown_scenario(self):
        with pytest.raises(ConfigurationError, match="unknown chaos scenario"):
            run_chaos("packet-gremlins")

    def test_distributed_entries(self):
        assert {n for n, e in SCENARIOS.items() if e.distributed} == {
            "shard-kill",
            "moving-target",
            *chaos.NETWORK_SCENARIOS,
        }


class TestCiWorkflow:
    """The CI chaos steps and matrix name only registered scenarios."""

    @pytest.fixture(scope="class")
    def ci_scenarios(self):
        text = CI_WORKFLOW.read_text()
        steps = re.findall(r"--scenario\s+([\w-]+)", text)
        matrix = re.search(r"^\s*scenario:\s*\[([^\]]*)\]", text, re.MULTILINE)
        assert matrix is not None, "chaos-matrix job lost its scenario list"
        return steps + [name.strip() for name in matrix.group(1).split(",")]

    def test_every_ci_scenario_is_registered(self, ci_scenarios):
        assert ci_scenarios
        assert set(ci_scenarios) <= set(SCENARIOS)

    def test_every_distributed_scenario_runs_in_ci(self, ci_scenarios):
        distributed = {n for n, e in SCENARIOS.items() if e.distributed}
        assert distributed <= set(ci_scenarios)


def test_moving_target_drill_passes_its_gate():
    report = run_chaos("moving-target", packets_per_fix=6, bursts=3, seed=7)
    assert report.scenario == "moving-target"
    assert report.injected["resumed_tracks"] >= 1
    assert gate(report, 90.0) == []
