"""End-to-end chaos scenario tests (the CI smoke gate's contract)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.dist.chaos import (
    SCENARIOS,
    ChaosReport,
    format_report,
    run_chaos,
    scenario_specs,
)


class TestScenarioSpecs:
    def test_all_scenarios_resolve(self):
        for name in SCENARIOS:
            specs = scenario_specs(name)
            assert isinstance(specs, tuple)
        assert scenario_specs("clean") == ()

    def test_unknown_scenario(self):
        with pytest.raises(ConfigurationError):
            scenario_specs("nope")

    def test_blackout_onset_scales_with_run_length(self):
        short = scenario_specs("blackout", packets_per_fix=8, bursts=2)[0]
        long = scenario_specs("blackout", packets_per_fix=8, bursts=10)[0]
        assert long.start_s > short.start_s


class TestRunChaos:
    @pytest.fixture(scope="class")
    def mixed(self):
        return run_chaos(scenario="mixed", seed=7, bursts=4)

    def test_mixed_meets_ci_gate(self, mixed):
        # The CI smoke step runs `repro chaos --scenario mixed --seed 7`
        # and fails below 90%; this is the same contract, pinned.
        assert mixed.fixes_attempted == 4
        assert mixed.success_rate >= 0.9

    def test_mixed_actually_injected_and_quarantined(self, mixed):
        assert sum(mixed.injected.values()) > 0
        assert sum(mixed.quarantined.values()) > 0
        assert "nan_subcarriers" in mixed.injected
        assert "nonfinite" in mixed.quarantined

    def test_mixed_stays_accurate(self, mixed):
        assert mixed.median_error_m < 1.5

    def test_report_roundtrips_to_dict(self, mixed):
        data = mixed.to_dict()
        assert data["scenario"] == "mixed"
        assert data["success_rate"] == mixed.success_rate
        assert isinstance(data["quarantined"], dict)

    def test_format_report_mentions_the_mix(self, mixed):
        text = format_report(mixed)
        assert "mixed" in text
        assert "injected:" in text
        assert "quarantined:" in text

    def test_same_seed_replays_identically(self):
        a = run_chaos(scenario="nan", seed=11, bursts=2)
        b = run_chaos(scenario="nan", seed=11, bursts=2)
        da, db = a.to_dict(), b.to_dict()
        # NaN placeholders (no baseline run) never compare equal directly.
        assert np.isnan(da.pop("clean_median_error_m"))
        assert np.isnan(db.pop("clean_median_error_m"))
        assert da == db

    def test_blackout_reports_clean_baseline(self):
        report = run_chaos(scenario="blackout", seed=7, bursts=2)
        assert report.success_rate == 1.0
        assert not np.isnan(report.clean_median_error_m)
        # Losing one of four APs should cost little accuracy.
        assert abs(report.error_delta_m) < 0.5

    def test_unknown_testbed(self):
        with pytest.raises(ConfigurationError):
            run_chaos(testbed="mars")

    def test_bad_oversample(self):
        with pytest.raises(ConfigurationError):
            run_chaos(oversample=0.5)


def test_chaos_report_success_rate_empty():
    report = ChaosReport(
        scenario="clean",
        testbed="small",
        seed=0,
        bursts=0,
        fixes_attempted=0,
        fixes_ok=0,
        degraded_fixes=0,
        median_error_m=float("nan"),
    )
    assert report.success_rate == 0.0


class TestHealthzProbes:
    """Chaos scenarios observed through the live ``/healthz`` endpoint.

    ``probe=`` turns a chaos run into a telemetry drill: the payloads
    below were scraped over real HTTP *mid-scenario*, so they assert
    what an external health checker would actually see while faults
    are being injected.
    """

    def test_blackout_probe_scrapes_live_healthz_each_burst(self):
        payloads = []
        report = run_chaos(
            scenario="blackout", seed=7, bursts=2, probe=payloads.append
        )
        assert len(payloads) == report.fixes_attempted == 2
        for payload in payloads:
            assert payload["ok"] is True  # degraded, never dead
            assert "breakers" in payload and "buffered_packets" in payload
        assert payloads[-1]["fix_events"] >= 1

    def test_downgrade_probe_sees_open_breaker_mid_scenario(self):
        payloads = []
        report = run_chaos(
            scenario="downgrade", seed=7, bursts=4, probe=payloads.append
        )
        assert report.downgraded_fixes >= 1
        # The endpoint reported the tripped AP while the scenario ran,
        # not just in the post-mortem report.
        open_seen = [p for p in payloads if p["breakers_open"] >= 1]
        assert open_seen
        assert open_seen[-1]["breakers"]["ap1"] == "open"
        # Server liveness is not conflated with degradation.
        assert all(p["ok"] is True for p in payloads)

    def test_probe_exceptions_propagate(self):
        # A failing health assertion inside the probe must fail the
        # drill, not be swallowed by scenario cleanup.
        def explode(payload):
            raise AssertionError("probe rejected payload")

        with pytest.raises(AssertionError, match="probe rejected"):
            run_chaos(scenario="clean", seed=7, bursts=1, probe=explode)


class TestDowngradeScenario:
    @pytest.fixture(scope="class")
    def downgrade(self):
        return run_chaos(scenario="downgrade", seed=7, bursts=4)

    def test_downgrade_meets_ci_gate(self, downgrade):
        # The CI gate: tripping a breaker mid-stream must not shed load —
        # fixes keep flowing (>= 90%) on the coarse tier.
        assert downgrade.fixes_attempted == 4
        assert downgrade.success_rate >= 0.9
        assert downgrade.downgraded_fixes >= 1

    def test_downgrade_keeps_breaker_open(self, downgrade):
        assert downgrade.breakers.get("ap1") == "open"

    def test_downgraded_fixes_in_report(self, downgrade):
        data = downgrade.to_dict()
        assert data["downgraded_fixes"] == downgrade.downgraded_fixes
        text = format_report(downgrade)
        assert "downgraded" in text
