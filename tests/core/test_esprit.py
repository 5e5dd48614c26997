"""Tests for the shift-invariance (ESPRIT) joint estimator."""

import numpy as np
import pytest

from repro.channel.csi_model import synthesize_csi
from repro.channel.paths import PropagationPath
from repro.core.esprit import EspritEstimator, _selection_indices
from repro.core.pipeline import SpotFi, SpotFiConfig
from repro.core.steering import SteeringModel
from repro.errors import ConfigurationError, EstimationError
from repro.testbed.layout import small_testbed
from repro.wifi.csi import CsiTrace


@pytest.fixture()
def estimator(grid, ula):
    model = SteeringModel.for_grid(grid, 3, ula.spacing_m)
    return EspritEstimator(model=model)


class TestSelections:
    def test_selection_shapes(self):
        tau_j1, tau_j2, theta_j1, theta_j2 = _selection_indices(2, 15)
        assert len(tau_j1) == len(tau_j2) == 28  # 2 antennas x 14 subcarriers
        assert len(theta_j1) == len(theta_j2) == 15  # 1 shift x 15 subcarriers

    def test_tau_selection_is_subcarrier_shift(self):
        tau_j1, tau_j2, _, _ = _selection_indices(2, 15)
        assert np.all(tau_j2 - tau_j1 == 1)

    def test_theta_selection_is_antenna_shift(self):
        _, _, theta_j1, theta_j2 = _selection_indices(2, 15)
        assert np.all(theta_j2 - theta_j1 == 15)


class TestCleanRecovery:
    def test_three_paths_exact(self, estimator, ula, grid, three_paths):
        csi = synthesize_csi(three_paths, ula, grid)
        estimates = estimator.estimate_packet(csi)
        assert len(estimates) == 3
        found = sorted(e.aoa_deg for e in estimates)
        expected = sorted(p.aoa_deg for p in three_paths)
        assert np.allclose(found, expected, atol=0.3)

    def test_powers_match_gains(self, estimator, ula, grid, three_paths):
        csi = synthesize_csi(three_paths, ula, grid)
        estimates = estimator.estimate_packet(csi)
        # Sorted by power: 1.0, 0.36, 0.16.
        powers = [e.power for e in estimates]
        assert powers == sorted(powers, reverse=True)
        assert powers[0] == pytest.approx(1.0, abs=0.05)
        assert powers[1] == pytest.approx(0.36, abs=0.05)

    def test_pairing_is_correct(self, estimator, ula, grid, three_paths):
        # Each estimated (AoA, ToF) pair must correspond to one true path
        # jointly — the automatic-pairing property.
        csi = synthesize_csi(three_paths, ula, grid)
        estimates = estimator.estimate_packet(csi)
        offset = estimates[0].tof_s - three_paths[0].tof_s  # sanitization shift
        for truth in three_paths:
            match = min(estimates, key=lambda e: abs(e.aoa_deg - truth.aoa_deg))
            assert match.aoa_deg == pytest.approx(truth.aoa_deg, abs=0.5)
            assert match.tof_s - truth.tof_s == pytest.approx(offset, abs=2e-9)

    def test_noise_tolerance(self, estimator, ula, grid, three_paths, rng):
        csi = synthesize_csi(three_paths, ula, grid)
        noise = (
            rng.normal(size=csi.shape) + 1j * rng.normal(size=csi.shape)
        ) * np.sqrt(np.mean(np.abs(csi) ** 2) / 2) * 10 ** (-25 / 20)
        estimates = estimator.estimate_packet(csi + noise)
        for truth in three_paths:
            match = min(estimates, key=lambda e: abs(e.aoa_deg - truth.aoa_deg))
            assert abs(match.aoa_deg - truth.aoa_deg) < 5.0


class TestInterfaces:
    def test_wrong_shape_rejected(self, estimator):
        with pytest.raises(EstimationError):
            estimator.estimate_packet(np.ones((3, 10), dtype=complex))

    def test_estimate_trace(self, estimator, ula, grid, three_paths):
        csi = synthesize_csi(three_paths, ula, grid)
        trace = CsiTrace.from_arrays(np.stack([csi, csi]))
        estimates = estimator.estimate_trace(trace)
        assert {e.packet_index for e in estimates} == {0, 1}

    def test_subarray_model(self, estimator):
        assert estimator.subarray_model.num_antennas == 2
        assert estimator.subarray_model.num_subcarriers == 15


class TestPipelineIntegration:
    def test_esprit_pipeline_locates(self):
        tb = small_testbed()
        sim = tb.simulator()
        target = tb.targets[0].position
        rng = np.random.default_rng(11)
        traces = [(ap, sim.generate_trace(target, ap, 15, rng=rng)) for ap in tb.aps]
        spotfi = SpotFi(
            sim.grid,
            bounds=tb.bounds,
            config=SpotFiConfig(packets_per_fix=15, estimation="esprit"),
            rng=np.random.default_rng(0),
        )
        fix = spotfi.locate(traces)
        assert fix.error_to(target) < 2.5

    def test_unknown_estimation_rejected(self):
        with pytest.raises(ConfigurationError, match="estimation must be one of"):
            SpotFiConfig(estimation="fft")
