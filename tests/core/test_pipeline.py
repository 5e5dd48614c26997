"""Tests for the end-to-end SpotFi pipeline (Algorithm 2)."""

import numpy as np
import pytest

from repro.channel.csi_model import ChannelSimulator
from repro.core.pipeline import SpotFi, SpotFiConfig
from repro.errors import ConfigurationError, LocalizationError
from repro.geom.floorplan import empty_room
from repro.testbed.layout import small_testbed
from repro.wifi.csi import CsiFrame, CsiTrace


@pytest.fixture(scope="module")
def testbed():
    return small_testbed()


@pytest.fixture(scope="module")
def located(testbed):
    """Run one full fix once and share it across assertions."""
    sim = testbed.simulator()
    rng = np.random.default_rng(11)
    target = testbed.targets[0].position
    traces = [(ap, sim.generate_trace(target, ap, 20, rng=rng)) for ap in testbed.aps]
    spotfi = SpotFi(
        sim.grid,
        bounds=testbed.bounds,
        config=SpotFiConfig(packets_per_fix=20),
        rng=np.random.default_rng(0),
    )
    fix = spotfi.locate(traces)
    return testbed, target, fix


class TestEndToEnd:
    def test_submeter_accuracy_in_los_room(self, located):
        _, target, fix = located
        assert fix.error_to(target) < 1.0

    def test_reports_per_ap(self, located):
        testbed, _, fix = located
        assert len(fix.reports) == len(testbed.aps)
        assert all(r.usable for r in fix.reports)

    def test_direct_aoa_close_to_truth(self, located):
        _, target, fix = located
        errors = [
            abs(r.direct.aoa_deg - r.array.aoa_to(target)) for r in fix.reports
        ]
        assert np.median(errors) < 8.0

    def test_likelihoods_positive(self, located):
        _, _, fix = located
        assert all(r.direct.likelihood > 0 for r in fix.reports)

    def test_clusters_recorded(self, located):
        _, _, fix = located
        assert all(len(r.clusters) >= 1 for r in fix.reports)
        assert all(len(r.estimates) > 0 for r in fix.reports)


class TestConfigBehaviour:
    def test_packets_per_fix_truncates(self, testbed):
        sim = testbed.simulator()
        rng = np.random.default_rng(3)
        target = testbed.targets[1].position
        trace = sim.generate_trace(target, testbed.aps[0], 30, rng=rng)
        spotfi = SpotFi(
            sim.grid,
            bounds=testbed.bounds,
            config=SpotFiConfig(packets_per_fix=5),
        )
        report = spotfi.process_ap(testbed.aps[0], trace)
        assert report.usable
        assert max(e.packet_index for e in report.estimates) <= 4

    @pytest.mark.parametrize("packets", [0, -3])
    def test_packets_per_fix_below_one_rejected(self, packets):
        # -3 would silently slice trace[:-3]; 0 would degrade every AP
        # with a misleading "no path estimates to cluster".
        with pytest.raises(ConfigurationError, match="packets_per_fix must be >= 1"):
            SpotFiConfig(packets_per_fix=packets)

    def test_estimator_cache_reused(self, testbed, grid):
        spotfi = SpotFi(grid, bounds=testbed.bounds)
        e1 = spotfi.estimator_for(testbed.aps[0])
        e2 = spotfi.estimator_for(testbed.aps[1])
        assert e1 is e2  # same geometry -> same estimator instance

    def test_unusable_ap_reported_not_fatal(self, testbed, grid, rng):
        # A pure-noise trace gives garbage estimates but must not raise.
        frames = [
            CsiFrame(
                csi=rng.normal(size=(3, 30)) + 1j * rng.normal(size=(3, 30)),
                rssi_dbm=-80.0,
            )
            for _ in range(5)
        ]
        spotfi = SpotFi(grid, bounds=testbed.bounds)
        report = spotfi.process_ap(testbed.aps[0], CsiTrace(frames))
        # Either usable (noise produced clusters) or cleanly unusable.
        assert report.rssi_dbm == -80.0

    def test_too_few_usable_aps_raises(self, testbed, grid):
        sim = testbed.simulator()
        rng = np.random.default_rng(5)
        target = testbed.targets[0].position
        traces = [
            (testbed.aps[0], sim.generate_trace(target, testbed.aps[0], 5, rng=rng))
        ]
        spotfi = SpotFi(grid, bounds=testbed.bounds)
        with pytest.raises(LocalizationError):
            spotfi.locate(traces)

    def test_kmeans_clustering_config(self, testbed):
        sim = testbed.simulator()
        rng = np.random.default_rng(9)
        target = testbed.targets[2].position
        traces = [
            (ap, sim.generate_trace(target, ap, 12, rng=rng)) for ap in testbed.aps
        ]
        spotfi = SpotFi(
            sim.grid,
            bounds=testbed.bounds,
            config=SpotFiConfig(packets_per_fix=12, clustering_method="kmeans"),
            rng=np.random.default_rng(1),
        )
        fix = spotfi.locate(traces)
        assert fix.error_to(target) < 1.5
