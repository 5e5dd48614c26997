"""Tests for the antenna-only MUSIC baseline."""

import numpy as np
import pytest

from reference import reference_music_aoa_spectrum
from repro.baselines.music_aoa import MusicAoaConfig, MusicAoaEstimator
from repro.channel.csi_model import synthesize_csi
from repro.channel.paths import PropagationPath
from repro.core.steering import SteeringModel
from repro.errors import ConfigurationError, EstimationError
from repro.wifi.csi import CsiTrace


@pytest.fixture()
def estimator(grid, ula):
    model = SteeringModel.for_grid(
        grid, num_antennas=3, antenna_spacing_m=ula.spacing_m
    )
    return MusicAoaEstimator(model=model)


class TestSinglePath:
    @pytest.mark.parametrize("aoa", [-50.0, -10.0, 0.0, 25.0, 60.0])
    def test_single_path_recovered(self, estimator, ula, grid, aoa):
        csi = synthesize_csi([PropagationPath(aoa, 50e-9, 1.0)], ula, grid)
        peaks = estimator.estimate_packet(csi)
        assert peaks
        assert peaks[0].aoa_deg == pytest.approx(aoa, abs=2.0)

    def test_two_separated_paths(self, estimator, ula, grid):
        paths = [
            PropagationPath(-45.0, 40e-9, 1.0),
            PropagationPath(40.0, 120e-9, 0.9j),
        ]
        csi = synthesize_csi(paths, ula, grid)
        peaks = estimator.estimate_packet(csi)
        found = sorted(p.aoa_deg for p in peaks)
        assert abs(found[0] + 45.0) < 6.0
        assert abs(found[-1] - 40.0) < 6.0


class TestLimitations:
    def test_cannot_resolve_more_paths_than_antennas(self, estimator, ula, grid):
        # 5 paths, 3 antennas: antenna-only MUSIC returns at most 2 peaks —
        # the limitation that motivates SpotFi (paper Sec. 3.1.1).
        rng = np.random.default_rng(0)
        paths = [
            PropagationPath(a, t, g)
            for a, t, g in zip(
                [-65.0, -30.0, 0.0, 35.0, 70.0],
                [20e-9, 70e-9, 130e-9, 200e-9, 280e-9],
                np.exp(1j * rng.uniform(0, 2 * np.pi, 5)),
            )
        ]
        csi = synthesize_csi(paths, ula, grid)
        peaks = estimator.estimate_packet(csi)
        assert len(peaks) <= 2


class TestOptions:
    def test_spatial_smoothing_runs(self, grid, ula):
        model = SteeringModel.for_grid(grid, 3, ula.spacing_m)
        est = MusicAoaEstimator(
            model=model,
            config=MusicAoaConfig(spatial_smoothing_subarray=2, max_peaks=1),
        )
        csi = synthesize_csi([PropagationPath(20.0, 50e-9, 1.0)], ula, grid)
        peaks = est.estimate_packet(csi)
        assert peaks[0].aoa_deg == pytest.approx(20.0, abs=3.0)

    def test_bad_smoothing_subarray_rejected(self, grid, ula):
        model = SteeringModel.for_grid(grid, 3, ula.spacing_m)
        est = MusicAoaEstimator(
            model=model, config=MusicAoaConfig(spatial_smoothing_subarray=5)
        )
        csi = synthesize_csi([PropagationPath(20.0, 50e-9, 1.0)], ula, grid)
        with pytest.raises(ConfigurationError):
            est.estimate_packet(csi)

    def test_wrong_antenna_count_rejected(self, estimator):
        with pytest.raises(EstimationError, match="does not match the steering model"):
            estimator.estimate_packet(np.ones((2, 30), dtype=complex))

    def test_wrong_subcarrier_count_rejected(self, estimator):
        with pytest.raises(EstimationError, match=r"CSI shape \(3, 29\)"):
            estimator.estimate_packet(np.ones((3, 29), dtype=complex))

    def test_sanitize_does_not_change_aoa(self, grid, ula):
        model = SteeringModel.for_grid(grid, 3, ula.spacing_m)
        plain = MusicAoaEstimator(model=model, sanitize=False)
        sanitized = MusicAoaEstimator(model=model, sanitize=True)
        csi = synthesize_csi([PropagationPath(33.0, 70e-9, 1.0)], ula, grid)
        a1 = plain.estimate_packet(csi)[0].aoa_deg
        a2 = sanitized.estimate_packet(csi)[0].aoa_deg
        assert a1 == pytest.approx(a2, abs=1.0)


class TestTraceHelpers:
    def test_estimate_trace_best(self, estimator, ula, grid):
        csi = synthesize_csi([PropagationPath(15.0, 50e-9, 1.0)], ula, grid)
        trace = CsiTrace.from_arrays(np.stack([csi] * 4))
        aoas = estimator.estimate_trace_best(trace)
        assert len(aoas) == 4
        assert np.allclose(aoas, 15.0, atol=2.0)

    def test_estimate_trace_all_returns_every_peak(self, estimator, ula, grid):
        paths = [
            PropagationPath(-45.0, 40e-9, 1.0),
            PropagationPath(40.0, 120e-9, 0.9j),
        ]
        csi = synthesize_csi(paths, ula, grid)
        trace = CsiTrace.from_arrays(np.stack([csi] * 2))
        aoas = estimator.estimate_trace_all(trace)
        assert len(aoas) >= 3


@pytest.mark.parametrize(
    "config, sanitize",
    [
        (MusicAoaConfig(), False),
        (MusicAoaConfig(), True),
        (MusicAoaConfig(forward_backward=False), False),
        (MusicAoaConfig(spatial_smoothing_subarray=2), False),
    ],
)
def test_office_spectra_match_reference(office_bursts, grid, config, sanitize):
    compared = 0
    for array, trace in office_bursts:
        model = SteeringModel.for_grid(grid, array.num_antennas, array.spacing_m)
        est = MusicAoaEstimator(model=model, config=config, sanitize=sanitize)
        for frame in trace:
            spectrum, aoa_grid = est.spectrum(frame.csi)
            assert np.array_equal(aoa_grid, config.aoa_grid())
            assert np.array_equal(spectrum, reference_music_aoa_spectrum(est, frame.csi))
            compared += 1
    assert compared == 18
