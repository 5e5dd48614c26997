"""Tests for the end-to-end SpotFi pipeline (Algorithm 2)."""

import numpy as np
import pytest

from repro.channel.csi_model import ChannelSimulator
from repro.core.pipeline import SpotFi, SpotFiConfig
from repro.errors import ConfigurationError, LocalizationError
from repro.geom.floorplan import empty_room
from repro.obs import NOOP_TRACER, Tracer
from repro.runtime import SerialExecutor
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

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"clustering_method": "dbscan"}, "clustering_method must be one of"),
            ({"grid_step_m": 0.0}, "grid_step_m must be > 0"),
            ({"grid_step_m": -0.25}, "grid_step_m must be > 0"),
            ({"grid_step_m": float("nan")}, "grid_step_m must be > 0"),
            ({"num_clusters": 0}, "num_clusters must be >= 1"),
            ({"num_clusters": -2}, "num_clusters must be >= 1"),
        ],
    )
    def test_bad_values_rejected_at_construction(self, kwargs, message):
        with pytest.raises(ConfigurationError, match=message):
            SpotFiConfig(**kwargs)

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


# ----------------------------------------------------------------------
# One fix path: traced/untraced, single/batched and pipeline/registry
# calls must agree.
# ----------------------------------------------------------------------
FAILING_AP = 3
PACKETS = 5


@pytest.fixture(scope="module")
def one_failing_ap(testbed):
    """Four APs; the last one sends only zero CSI, which fails estimation."""
    sim = testbed.simulator()
    rng = np.random.default_rng(11)
    target = testbed.targets[0].position
    pairs = [
        (ap, sim.generate_trace(target, ap, PACKETS, rng=rng))
        for ap in testbed.aps[:4]
    ]
    zeros = CsiTrace(
        [CsiFrame(csi=np.zeros((3, 30), complex), rssi_dbm=-60.0)] * PACKETS
    )
    pairs[FAILING_AP] = (pairs[FAILING_AP][0], zeros)
    return sim, pairs


def make_spotfi(testbed, sim, estimation, **kwargs):
    return SpotFi(
        sim.grid,
        bounds=testbed.bounds,
        config=SpotFiConfig(packets_per_fix=PACKETS, estimation=estimation),
        rng=np.random.default_rng(0),
        **kwargs,
    )


def report_summary(report):
    if not report.usable:
        return (report.failure,)
    d = report.direct
    return (d.aoa_deg, d.tof_s, d.likelihood, report.failure)


@pytest.mark.parametrize("estimation", ["music", "esprit"])
class TestOneFixPath:
    def test_traced_fix_matches_untraced(self, testbed, one_failing_ap, estimation):
        sim, pairs = one_failing_ap
        tracer = Tracer()
        traced = make_spotfi(testbed, sim, estimation, tracer=tracer).locate(pairs)
        plain = make_spotfi(testbed, sim, estimation, tracer=NOOP_TRACER).locate(
            pairs
        )
        assert traced.position == plain.position
        assert traced.degraded_aps == plain.degraded_aps == (FAILING_AP,)
        assert [report_summary(r) for r in traced.reports] == [
            report_summary(r) for r in plain.reports
        ]
        assert "EstimationError" in traced.reports[FAILING_AP].failure
        (root,) = tracer.finished_spans()
        assert root.name == "locate"
        assert root.attributes["usable_aps"] == 3
        assert root.attributes["degraded_aps"] == [FAILING_AP]
        stages = root.find("music" if estimation == "music" else "esprit")
        assert [s.status for s in stages].count("error") == 1
        assert len(stages) == len(pairs)

    @pytest.mark.parametrize("index", [0, FAILING_AP])
    def test_process_ap_is_process_aps_of_one(
        self, testbed, one_failing_ap, estimation, index
    ):
        sim, pairs = one_failing_ap
        single = make_spotfi(testbed, sim, estimation).process_ap(*pairs[index])
        batched = make_spotfi(testbed, sim, estimation).process_aps([pairs[index]])
        assert single == batched[0]

    def test_every_failed_packet_counted(self, testbed, one_failing_ap, estimation):
        sim, pairs = one_failing_ap
        for run in (
            lambda spotfi: spotfi.locate(pairs),
            lambda spotfi: spotfi.process_ap(*pairs[FAILING_AP]),
        ):
            executor = SerialExecutor()
            run(make_spotfi(testbed, sim, estimation, executor=executor))
            metrics = executor.metrics
            assert metrics.counter("estimate.errors") == PACKETS
            assert metrics.counter("estimate.errors.EstimationError") == PACKETS


class TestRegistrySpans:
    def test_registry_solve_span_matches_pipeline(self, testbed, one_failing_ap):
        sim, pairs = one_failing_ap
        tracer = Tracer()
        spotfi = make_spotfi(testbed, sim, "music", tracer=tracer)
        spotfi.locate(pairs)
        fix = spotfi.locate(pairs, estimator="tof")
        assert fix.estimator == "tof"
        pipeline_root, registry_root = tracer.finished_spans()
        assert registry_root.attributes["estimator"] == "tof"
        (pipeline_solve,) = pipeline_root.find("solve")
        (registry_solve,) = registry_root.find("solve")
        assert set(registry_solve.attributes) == set(pipeline_solve.attributes)
        assert set(registry_solve.attributes) >= {
            "num_observations",
            "objective",
            "iterations",
            "mean_abs_aoa_residual_deg",
        }
        assert registry_root.attributes["degraded_aps"] == list(fix.degraded_aps)


#: (registry name, its kernel, the other kernel): the name selected on a
#: pipeline configured for the other kernel.
BY_NAME = [("esprit", "esprit", "music"), ("music2d", "music", "esprit")]


@pytest.mark.parametrize("name, own, other", BY_NAME)
class TestKernelByName:
    """SpotFi's own kernels named through the registry take the default path."""

    def test_fix_equals_config_default(self, testbed, one_failing_ap, name, own, other):
        sim, pairs = one_failing_ap
        by_name = make_spotfi(testbed, sim, other).locate(pairs, estimator=name)
        default = make_spotfi(testbed, sim, own).locate(pairs)
        assert by_name.estimator == default.estimator == name
        assert by_name.position == default.position
        assert by_name.reports == default.reports
        assert all(r.estimates for r in by_name.reports if r.usable)

    def test_generator_advances_across_fixes(self, testbed, one_failing_ap, name, own, other):
        sim, pairs = one_failing_ap
        by_name = make_spotfi(testbed, sim, other)
        default = make_spotfi(testbed, sim, own)
        for _ in range(2):
            assert by_name.locate(pairs, estimator=name).reports == default.locate(
                pairs
            ).reports

    def test_zero_csi_packet_counted_once(self, testbed, one_failing_ap, name, own, other):
        sim, pairs = one_failing_ap
        pairs = [pair for k, pair in enumerate(pairs) if k != FAILING_AP]
        array, trace = pairs[0]
        frames = list(trace)
        frames[1] = CsiFrame(csi=np.zeros_like(frames[1].csi), rssi_dbm=-60.0)
        executor = SerialExecutor()
        spotfi = make_spotfi(testbed, sim, other, executor=executor)
        spotfi.locate([(array, CsiTrace(frames))] + pairs[1:], estimator=name)
        assert executor.metrics.counter("estimate.errors.EstimationError") == 1
        assert executor.metrics.counter("estimate.submitted") == len(pairs)

    def test_traced_aps_have_kernel_and_cluster_spans(
        self, testbed, one_failing_ap, name, own, other
    ):
        sim, pairs = one_failing_ap
        tracer = Tracer()
        make_spotfi(testbed, sim, other, tracer=tracer).locate(pairs, estimator=name)
        (root,) = tracer.finished_spans()
        assert root.attributes["estimator"] == name
        stages = ["esprit"] if own == "esprit" else ["sanitize", "smooth", "music"]
        aps = [child for child in root.children if child.name.startswith("ap[")]
        assert [ap.name for ap in aps] == [f"ap[{k}]" for k in range(len(pairs))]
        for k, ap in enumerate(aps):
            children = [child.name for child in ap.children]
            expected = stages if k == FAILING_AP else stages + ["cluster"]
            assert children == expected
        assert root.children[-1].name == "solve"
