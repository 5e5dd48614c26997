"""Tests for the shift-invariance (ESPRIT) joint estimator."""

import numpy as np
import pytest

from reference import reference_esprit_packet
from repro.channel.csi_model import synthesize_csi
from repro.channel.paths import PropagationPath
from repro.core.esprit import EspritEstimator, _selection_indices
from repro.core.estimator import JointEstimator
from repro.core.music import MusicConfig, covariance, subspaces
from repro.core.pipeline import SpotFi, SpotFiConfig
from repro.core.sanitize import sanitize_csi
from repro.core.smoothing import smooth_csi
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
        with pytest.raises(
            EstimationError,
            match=r"CSI shape \(3, 10\) does not match the steering model \(3, 30\)",
        ):
            estimator.estimate_packet(np.ones((3, 10), dtype=complex))

    def test_zero_csi_message_shared_with_music(self, estimator):
        zero = np.zeros((3, 30), dtype=complex)
        messages = []
        for est in (estimator, JointEstimator(model=estimator.model)):
            with pytest.raises(EstimationError) as excinfo:
                est.estimate_packet(zero)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]
        assert "no positive eigenvalues" in messages[0]

    def test_estimate_trace(self, estimator, ula, grid, three_paths):
        csi = synthesize_csi(three_paths, ula, grid)
        trace = CsiTrace.from_arrays(np.stack([csi, csi]))
        estimates = estimator.estimate_trace(trace)
        assert {e.packet_index for e in estimates} == {0, 1}

    def test_subarray_model(self, estimator):
        assert estimator.subarray_model.num_antennas == 2
        assert estimator.subarray_model.num_subcarriers == 15


class TestSharedSubspace:
    def test_office_packets_match_reference(self, office_bursts, grid):
        compared = 0
        for array, trace in office_bursts:
            est = EspritEstimator(
                model=SteeringModel.for_grid(grid, array.num_antennas, array.spacing_m)
            )
            csi = [frame.csi for frame in trace]
            want = [reference_esprit_packet(est, c, packet_index=i) for i, c in enumerate(csi)]
            assert all(want)
            assert est.estimate_stack(csi) == want
            assert est.estimate_packet(csi[1], packet_index=1) == want[1]
            compared += len(csi)
        assert compared == 18

    def test_mdl_order_honoured(self, estimator, ula, grid, three_paths):
        # At 10 dB SNR the 25 dB eigenvalue threshold keeps noise
        # dimensions that MDL rejects.
        csi = synthesize_csi(three_paths, ula, grid)
        rng = np.random.default_rng(1234)
        noise = (
            rng.normal(size=csi.shape) + 1j * rng.normal(size=csi.shape)
        ) * np.sqrt(np.mean(np.abs(csi) ** 2) / 2) * 10 ** (-10 / 20)
        csi = csi + noise
        x = smooth_csi(sanitize_csi(csi), estimator.smoothing)
        mdl = MusicConfig(use_mdl=True)
        threshold_order = subspaces(covariance(x), MusicConfig())[2]
        mdl_order = subspaces(covariance(x), mdl, num_snapshots=x.shape[1])[2]
        assert mdl_order < threshold_order
        assert len(estimator.estimate_packet(csi)) > mdl_order
        with_mdl = EspritEstimator(model=estimator.model, music=mdl)
        assert 0 < len(with_mdl.estimate_packet(csi)) <= mdl_order


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
