"""Tests for the per-packet joint (AoA, ToF) estimator."""

import numpy as np
import pytest

from repro.channel.csi_model import synthesize_csi
from repro.channel.paths import PropagationPath
from repro.core.estimator import JointEstimator, PathEstimate, estimates_as_array
from repro.core.music import MusicConfig
from repro.errors import ConfigurationError, EstimationError
from repro.wifi.csi import CsiTrace


@pytest.fixture()
def estimator(ula, grid):
    return JointEstimator.for_intel5300(ula, grid)


def closest(estimates, aoa):
    return min(estimates, key=lambda e: abs(e.aoa_deg - aoa))


class TestSinglePath:
    @pytest.mark.parametrize("aoa", [-60.0, -25.0, 0.0, 15.0, 45.0, 75.0])
    def test_aoa_recovered_across_the_range(self, estimator, ula, grid, aoa):
        path = PropagationPath(aoa_deg=aoa, tof_s=60e-9, gain=1.0)
        csi = synthesize_csi([path], ula, grid)
        estimates = estimator.estimate_packet(csi)
        assert estimates, f"no estimates for AoA {aoa}"
        assert estimates[0].aoa_deg == pytest.approx(aoa, abs=1.0)

    def test_packet_index_recorded(self, estimator, ula, grid):
        csi = synthesize_csi([PropagationPath(10.0, 50e-9, 1.0)], ula, grid)
        estimates = estimator.estimate_packet(csi, packet_index=7)
        assert all(e.packet_index == 7 for e in estimates)


class TestMultipath:
    def test_three_paths_resolved(self, estimator, ula, grid, three_paths):
        csi = synthesize_csi(three_paths, ula, grid)
        estimates = estimator.estimate_packet(csi)
        assert len(estimates) >= 3
        for path in three_paths:
            est = closest(estimates, path.aoa_deg)
            assert est.aoa_deg == pytest.approx(path.aoa_deg, abs=1.5)

    def test_relative_tof_preserved(self, estimator, ula, grid, three_paths):
        # Sanitization shifts all ToFs by a common amount; the pairwise
        # differences must survive.
        csi = synthesize_csi(three_paths, ula, grid)
        estimates = estimator.estimate_packet(csi)
        est = {p.aoa_deg: closest(estimates, p.aoa_deg) for p in three_paths}
        true_delta = three_paths[1].tof_s - three_paths[0].tof_s
        measured_delta = est[-40.0].tof_s - est[20.0].tof_s
        assert measured_delta == pytest.approx(true_delta, abs=5e-9)

    def test_more_paths_than_antennas(self, estimator, ula, grid):
        # The whole point of SpotFi: resolve 5 paths with 3 antennas.
        rng = np.random.default_rng(3)
        paths = [
            PropagationPath(aoa, tof, gain)
            for aoa, tof, gain in zip(
                [-65.0, -30.0, 0.0, 35.0, 70.0],
                [20e-9, 70e-9, 130e-9, 200e-9, 280e-9],
                1.0 * np.exp(1j * rng.uniform(0, 2 * np.pi, 5)),
            )
        ]
        csi = synthesize_csi(paths, ula, grid)
        estimates = estimator.estimate_packet(csi)
        recovered = 0
        for path in paths:
            est = closest(estimates, path.aoa_deg)
            if abs(est.aoa_deg - path.aoa_deg) < 3.0:
                recovered += 1
        assert recovered >= 4

    def test_noise_tolerance(self, estimator, ula, grid, three_paths, rng):
        csi = synthesize_csi(three_paths, ula, grid)
        noise = (
            rng.normal(size=csi.shape) + 1j * rng.normal(size=csi.shape)
        ) * np.sqrt(np.mean(np.abs(csi) ** 2) / 2) * 10 ** (-25 / 20)
        estimates = estimator.estimate_packet(csi + noise)
        for path in three_paths:
            est = closest(estimates, path.aoa_deg)
            assert abs(est.aoa_deg - path.aoa_deg) < 4.0


class TestInvariances:
    def test_global_phase_invariance(self, estimator, ula, grid, three_paths):
        # A common rotation (residual CFO) must not move any estimate.
        csi = synthesize_csi(three_paths, ula, grid)
        base = estimator.estimate_packet(csi)
        rotated = estimator.estimate_packet(csi * np.exp(1.234j))
        assert len(base) == len(rotated)
        for a, b in zip(base, rotated):
            assert a.aoa_deg == pytest.approx(b.aoa_deg, abs=1e-9)
            assert a.tof_s == pytest.approx(b.tof_s, abs=1e-15)

    def test_amplitude_scale_invariance(self, estimator, ula, grid, three_paths):
        # AGC gain changes scale the whole CSI matrix; estimates hold.
        csi = synthesize_csi(three_paths, ula, grid)
        base = estimator.estimate_packet(csi)
        scaled = estimator.estimate_packet(csi * 37.5)
        assert len(base) == len(scaled)
        for a, b in zip(base, scaled):
            assert a.aoa_deg == pytest.approx(b.aoa_deg, abs=1e-9)

    def test_sto_invariance_of_aoa(self, estimator, ula, grid, three_paths):
        # Different STOs shift relative ToFs identically and leave AoA
        # untouched (the whole point of Algorithm 1 + relative ToFs).
        csi = synthesize_csi(three_paths, ula, grid)
        n = np.arange(grid.num_subcarriers)
        shifted = csi * np.exp(
            -2j * np.pi * grid.subcarrier_spacing_hz * n * 90e-9
        )[None, :]
        base = sorted(estimator.estimate_packet(csi), key=lambda e: e.aoa_deg)
        moved = sorted(estimator.estimate_packet(shifted), key=lambda e: e.aoa_deg)
        assert len(base) == len(moved)
        for a, b in zip(base, moved):
            assert a.aoa_deg == pytest.approx(b.aoa_deg, abs=0.5)


class TestInterfaces:
    def test_wrong_shape_rejected(self, estimator):
        with pytest.raises(EstimationError):
            estimator.estimate_packet(np.ones((3, 10), dtype=complex))

    def test_estimate_trace_pools_packets(self, estimator, ula, grid, three_paths):
        csi = synthesize_csi(three_paths, ula, grid)
        trace = CsiTrace.from_arrays(np.stack([csi, csi, csi]))
        estimates = estimator.estimate_trace(trace)
        assert {e.packet_index for e in estimates} == {0, 1, 2}

    @pytest.mark.parametrize(
        "kwargs",
        [{"max_peaks": 0}, {"max_peaks": -3}, {"min_rel_height_db": -1.0}],
    )
    def test_settings_that_keep_no_estimates_rejected(self, ula, grid, kwargs):
        with pytest.raises(ConfigurationError):
            JointEstimator.for_intel5300(ula, grid, **kwargs)

    def test_subarray_model_shape(self, estimator):
        assert estimator.subarray_model.num_antennas == 2
        assert estimator.subarray_model.num_subcarriers == 15

    def test_spectrum_shape(self, estimator, ula, grid, three_paths):
        csi = synthesize_csi(three_paths, ula, grid)
        spec, aoa_grid, tof_grid = estimator.spectrum(csi)
        assert spec.shape == (len(aoa_grid), len(tof_grid))

    def test_custom_music_grid(self, ula, grid):
        est = JointEstimator.for_intel5300(
            ula,
            grid,
            music=MusicConfig(aoa_grid_deg=(-45.0, 45.0, 0.5)),
        )
        csi = synthesize_csi([PropagationPath(10.0, 50e-9, 1.0)], ula, grid)
        estimates = est.estimate_packet(csi)
        assert estimates[0].aoa_deg == pytest.approx(10.0, abs=0.6)

    def test_estimate_burst_pooled(self, estimator, ula, grid, three_paths, rng):
        # Pooled covariance over a noisy burst recovers all paths.
        csi = synthesize_csi(three_paths, ula, grid)
        noisy = []
        for _ in range(8):
            noise = (
                rng.normal(size=csi.shape) + 1j * rng.normal(size=csi.shape)
            ) * np.sqrt(np.mean(np.abs(csi) ** 2) / 2) * 10 ** (-20 / 20)
            noisy.append(csi + noise)
        trace = CsiTrace.from_arrays(np.stack(noisy))
        estimates = estimator.estimate_burst(trace)
        for path in three_paths:
            best = min(abs(e.aoa_deg - path.aoa_deg) for e in estimates)
            assert best < 3.0

    def test_estimate_burst_empty_rejected(self, estimator):
        with pytest.raises(EstimationError):
            estimator.estimate_burst(CsiTrace())

    def test_estimate_burst_shape_mismatch(self, estimator, rng):
        bad = CsiTrace.from_arrays(
            rng.normal(size=(2, 3, 10)) + 1j * rng.normal(size=(2, 3, 10))
        )
        with pytest.raises(EstimationError):
            estimator.estimate_burst(bad)

    def test_estimates_as_array(self):
        est = [
            PathEstimate(10.0, 20e-9, 5.0, 0),
            PathEstimate(-30.0, 80e-9, 3.0, 1),
        ]
        arr = estimates_as_array(est)
        assert arr.shape == (2, 4)
        assert arr[1, 0] == -30.0
        assert estimates_as_array([]).shape == (0, 4)
