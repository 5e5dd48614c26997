"""End-to-end tests for the built-in estimators on the small testbed."""

import numpy as np
import pytest

from repro.core.estimator import prepare_csi_all
from repro.core.pipeline import SpotFi, SpotFiConfig
from repro.estimators import EstimatorContext, available, create, tier_of
from repro.estimators.tof import delay_spectrum
from repro.testbed.layout import small_testbed
from repro.wifi.csi import CsiTrace

from reference import (
    reference_mdtrack_estimate,
    reference_tof_estimate,
    reference_tof_spectrum,
)

#: Accuracy ceiling per tier — coarse trades precision for latency.
_TIER_ERROR_M = {"precise": 1.5, "balanced": 2.5, "coarse": 3.5}


@pytest.fixture(scope="module")
def scene():
    tb = small_testbed()
    sim = tb.simulator()
    rng = np.random.default_rng(42)
    target = tb.targets[0].position
    pairs = [
        (ap, sim.generate_trace(target, ap, 8, rng=rng)) for ap in tb.aps
    ]
    return tb, sim, target, pairs


@pytest.mark.parametrize(
    "name", ["music2d", "mdtrack", "music-aoa", "arraytrack", "tof"]
)
def test_estimator_localizes(scene, name):
    tb, sim, target, pairs = scene
    context = EstimatorContext(
        grid=sim.grid,
        bounds=tb.bounds,
        config=SpotFiConfig(packets_per_fix=8),
        seed=0,
    )
    estimator = create(name, context)
    estimates = [estimator.estimate_ap(ap, trace) for ap, trace in pairs]
    assert all(e.usable for e in estimates)
    result = estimator.fuse(estimates)
    error = float(np.hypot(result.position.x - target.x, result.position.y - target.y))
    assert error < _TIER_ERROR_M[tier_of(name)], (name, error)


def test_locate_with_estimator_matches_direct_use(scene):
    tb, sim, target, pairs = scene
    spotfi = SpotFi(
        sim.grid,
        bounds=tb.bounds,
        config=SpotFiConfig(packets_per_fix=8),
        rng=np.random.default_rng(0),
    )
    fix = spotfi.locate(pairs, estimator="mdtrack")
    assert fix.estimator == "mdtrack"
    assert fix.error_to(target) < 2.5
    # The default path tags the fix with the classic estimator name.
    classic = spotfi.locate(pairs)
    assert classic.estimator == "music2d"


def test_locate_by_tier(scene):
    tb, sim, target, pairs = scene
    spotfi = SpotFi(
        sim.grid,
        bounds=tb.bounds,
        config=SpotFiConfig(packets_per_fix=8),
        rng=np.random.default_rng(0),
    )
    fix = spotfi.locate(pairs, estimator="coarse")
    assert fix.estimator == "tof"
    assert fix.error_to(target) < 3.5


def test_per_estimator_timings_recorded(scene):
    tb, sim, target, pairs = scene
    spotfi = SpotFi(
        sim.grid,
        bounds=tb.bounds,
        config=SpotFiConfig(packets_per_fix=8),
        rng=np.random.default_rng(0),
    )
    spotfi.locate(pairs, estimator="tof")
    timings = spotfi.executor.metrics.snapshot()["timings"]
    assert "estimate.tof" in timings


def test_every_registered_estimator_reports_tier():
    for name in available():
        assert tier_of(name) in ("precise", "balanced", "coarse")


@pytest.mark.parametrize(
    "name", ["music2d", "esprit", "mdtrack", "music-aoa", "arraytrack", "tof"]
)
def test_wrong_subcarrier_count_degrades_only_that_ap(scene, name):
    tb, sim, target, pairs = scene
    array, trace = pairs[0]
    cut = CsiTrace.from_arrays(trace.csi_array()[:, :, :29])
    spotfi = SpotFi(
        sim.grid,
        bounds=tb.bounds,
        config=SpotFiConfig(packets_per_fix=8),
        rng=np.random.default_rng(0),
    )
    fix = spotfi.locate([(array, cut)] + pairs[1:], estimator=name)
    assert fix.degraded_aps == (0,)
    assert "CSI shape (3, 29) does not match the steering model (3, 30)" in (
        fix.reports[0].failure
    )


@pytest.mark.parametrize(
    "name, reference", [("tof", reference_tof_estimate), ("mdtrack", reference_mdtrack_estimate)]
)
def test_office_estimates_match_reference(office_bursts, grid, name, reference):
    for seed, (array, trace) in enumerate(office_bursts):
        context = EstimatorContext(
            grid=grid, bounds=None, config=SpotFiConfig(packets_per_fix=3), seed=seed
        )
        estimator = create(name, context)
        got = estimator.estimate_ap(array, trace)
        assert got.usable
        assert got == reference(estimator, array, trace)


@pytest.mark.parametrize("sanitize", [True, False])
@pytest.mark.parametrize("packets", [1, 3, 8])
def test_tof_stacked_spectrum_matches_per_packet_reference(
    scene, office_bursts, grid, packets, sanitize
):
    _tb, sim, _target, pairs = scene
    bursts = [(grid, pair) for pair in office_bursts] + [(sim.grid, p) for p in pairs]
    config = SpotFiConfig(packets_per_fix=packets, sanitize=sanitize)
    for seed, (ofdm, (array, trace)) in enumerate(bursts):
        context = EstimatorContext(grid=ofdm, bounds=None, config=config, seed=seed)
        estimator = create("tof", context)
        model, _tof_grid, conj_o = estimator._model_for(array)
        stack = prepare_csi_all([f.csi for f in trace[:packets]], model, sanitize)
        np.testing.assert_array_equal(
            delay_spectrum(stack, conj_o),
            reference_tof_spectrum(estimator, array, trace),
        )
        assert estimator.estimate_ap(array, trace) == reference_tof_estimate(
            estimator, array, trace
        )
