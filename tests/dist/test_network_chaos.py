"""End-to-end crash-restart chaos: supervisor + replay over real shards.

One full matrix scenario with subprocess shards — the heavyweight proof
that a SIGKILL mid-stream is survived through the whole loop: failover,
journal replay, supervised restart, probe, ring re-admission, and exact
fix-count accounting (no duplicates, nobody stranded).
"""

import pytest

from repro.dist.chaos import NETWORK_SCENARIOS, network_scenario_specs, run_chaos
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def drill():
    return run_chaos("crash-restart", packets_per_fix=4, bursts=2, seed=7)


class TestCrashRestartDrill:
    def test_meets_the_availability_gate(self, drill):
        assert drill.scenario == "crash-restart"
        assert drill.success_rate >= 0.9

    def test_at_least_once_failover_engaged(self, drill):
        assert drill.injected["killed_shards"] == 1
        assert drill.injected["replayed"] >= 1

    def test_supervisor_brought_the_victim_back(self, drill):
        assert drill.injected["supervisor.restarts"] >= 1
        assert drill.injected["supervisor.readmitted"] >= 1
        assert drill.injected["unrouted_sources"] == 0

    def test_dedup_absorbed_every_redelivery(self, drill):
        assert drill.injected["excess_fixes"] == 0


class TestScenarioCatalog:
    def test_matrix_is_complete(self):
        assert set(NETWORK_SCENARIOS) == {
            "corrupt-bytes",
            "crash-restart",
            "reset-storm",
            "slow-link",
        }

    def test_every_wire_scenario_has_specs(self):
        for scenario in NETWORK_SCENARIOS:
            specs = network_scenario_specs(scenario)
            if scenario == "crash-restart":
                assert specs == ()  # the fault is the SIGKILL itself
            else:
                assert specs

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError, match="scenario"):
            network_scenario_specs("packet-gremlins")
