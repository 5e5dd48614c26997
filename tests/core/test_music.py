"""Tests for MUSIC subspaces and the 2-D pseudospectrum."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.music import (
    MusicConfig,
    covariance,
    mdl_signal_dimension,
    music_spectrum,
    music_spectrum_from_signal,
    noise_subspace,
    spectrum_value,
    subspaces,
)
from repro.core.smoothing import PAPER_CONFIG, smooth_csi
from repro.core.steering import SteeringModel
from repro.errors import ConfigurationError, EstimationError


@pytest.fixture()
def model():
    return SteeringModel(3, 30, 0.029, 5.19e9, 1.25e6)


@pytest.fixture()
def sub_model(model):
    return model.subarray_model(2, 15)


def einsum_energy(basis, model, aoa_grid, tof_grid):
    """Test oracle: ``sum_k |e_k^H a|^2 / |a|^2`` by direct contraction.

    The pre-projector kernel: an antenna then a subcarrier contraction per
    basis vector, A * T * N * K multiply-adds on an (A, T, K) intermediate.
    """
    m, n = model.num_antennas, model.num_subcarriers
    phi = model.antenna_vector(np.asarray(aoa_grid, dtype=float))
    omega = model.subcarrier_vector(np.asarray(tof_grid, dtype=float))
    e_grid = basis.conj().reshape(m, n, -1)
    partial = np.einsum("am,mnk->ank", phi, e_grid)
    proj = np.einsum("ank,tn->atk", partial, omega)
    return np.sum(np.abs(proj) ** 2, axis=2) / (m * n)


@st.composite
def kernel_cases(draw):
    """(model, orthonormal basis, rank K, aoa subset, tof subset)."""
    m = draw(st.sampled_from([2, 3]))
    n = draw(st.sampled_from([5, 15]))
    rank = draw(st.integers(min_value=1, max_value=m * n - 1))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    q, _ = np.linalg.qr(
        rng.normal(size=(m * n, m * n)) + 1j * rng.normal(size=(m * n, m * n))
    )
    config = MusicConfig()
    aoas = draw(
        st.lists(st.sampled_from(config.aoa_grid().tolist()), min_size=1, max_size=40, unique=True)
    )
    tofs = draw(
        st.lists(st.sampled_from(config.tof_grid().tolist()), min_size=1, max_size=40, unique=True)
    )
    model = SteeringModel(m, n, 0.029, 5.19e9, 1.25e6)
    return model, q, rank, np.asarray(aoas), np.asarray(tofs)


def ideal_smoothed(model, aoas, tofs, gains):
    a = model.steering_matrix(aoas, tofs)
    csi = (a @ np.asarray(gains, dtype=complex)).reshape(3, 30)
    return smooth_csi(csi, PAPER_CONFIG)


class TestConfig:
    def test_grids(self):
        cfg = MusicConfig(aoa_grid_deg=(-90, 90, 1.0), tof_grid_s=(0, 100e-9, 10e-9))
        assert len(cfg.aoa_grid()) == 181
        assert len(cfg.tof_grid()) == 11

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MusicConfig(eigenvalue_threshold_ratio=0.0)
        with pytest.raises(ConfigurationError):
            MusicConfig(max_paths=0)
        with pytest.raises(ConfigurationError):
            MusicConfig(aoa_grid_deg=(90, -90, 1))
        with pytest.raises(ConfigurationError):
            MusicConfig(tof_grid_s=(0, 100e-9, 0))


class TestSubspaces:
    def test_signal_dimension_matches_path_count(self, model):
        x = ideal_smoothed(model, [20.0, -40.0], [40e-9, 120e-9], [1.0, 0.7j])
        e_s, e_n, k = subspaces(covariance(x))
        assert k == 2
        assert e_s.shape == (30, 2)
        assert e_n.shape == (30, 28)

    def test_subspaces_orthonormal(self, model):
        x = ideal_smoothed(model, [20.0, -40.0], [40e-9, 120e-9], [1.0, 0.7j])
        e_s, e_n, _ = subspaces(covariance(x))
        full = np.concatenate([e_s, e_n], axis=1)
        assert np.allclose(full.conj().T @ full, np.eye(30), atol=1e-10)

    def test_noise_subspace_orthogonal_to_steering(self, model, sub_model):
        aoas, tofs = [20.0, -40.0], [40e-9, 120e-9]
        x = ideal_smoothed(model, aoas, tofs, [1.0, 0.7j])
        e_n, _ = noise_subspace(covariance(x))
        for aoa, tof in zip(aoas, tofs):
            a = sub_model.steering_vector(aoa, tof)
            # The key MUSIC property: steering vectors of true paths are
            # orthogonal to the noise subspace.
            assert np.linalg.norm(e_n.conj().T @ a) < 1e-6

    def test_zero_covariance_rejected(self):
        with pytest.raises(EstimationError):
            noise_subspace(np.zeros((30, 30), dtype=complex))

    def test_nonsquare_rejected(self):
        with pytest.raises(EstimationError):
            noise_subspace(np.ones((3, 4), dtype=complex))

    def test_max_paths_cap(self, model):
        x = ideal_smoothed(
            model,
            [10.0, -20.0, 40.0, -60.0],
            [20e-9, 60e-9, 110e-9, 200e-9],
            [1.0, 0.9, 0.8, 0.7],
        )
        _, k = noise_subspace(covariance(x), MusicConfig(max_paths=2))
        assert k == 2


class TestMdl:
    def test_mdl_on_clean_eigenvalues(self):
        lam = np.array([100.0, 50.0, 20.0, 1e-9, 1e-9, 1e-9, 1e-9, 1e-9])
        assert mdl_signal_dimension(lam, num_snapshots=30) == 3

    def test_mdl_noisy(self):
        rng = np.random.default_rng(0)
        lam = np.sort(np.concatenate([[50.0, 30.0], rng.uniform(0.9, 1.1, 20)]))[::-1]
        k = mdl_signal_dimension(lam, num_snapshots=100)
        assert k == 2


class TestSpectrum:
    def test_peaks_at_true_parameters(self, model, sub_model):
        aoas, tofs = [20.0, -40.0], [40e-9, 120e-9]
        x = ideal_smoothed(model, aoas, tofs, [1.0, 0.7j])
        e_n, _ = noise_subspace(covariance(x))
        aoa_grid = np.arange(-90.0, 90.5, 1.0)
        tof_grid = np.arange(0.0, 200e-9, 2.5e-9)
        spec = music_spectrum(e_n, sub_model, aoa_grid, tof_grid)
        # Values at true (theta, tau) must dwarf the background median.
        for aoa, tof in zip(aoas, tofs):
            i = int(np.argmin(np.abs(aoa_grid - aoa)))
            j = int(np.argmin(np.abs(tof_grid - tof)))
            assert spec[i, j] > 100 * np.median(spec)

    def test_signal_and_noise_variants_agree(self, model, sub_model):
        x = ideal_smoothed(model, [20.0, -40.0], [40e-9, 120e-9], [1.0, 0.7j])
        e_s, e_n, _ = subspaces(covariance(x))
        aoa_grid = np.arange(-90.0, 91.0, 5.0)
        tof_grid = np.arange(0.0, 200e-9, 20e-9)
        s1 = music_spectrum(e_n, sub_model, aoa_grid, tof_grid)
        s2 = music_spectrum_from_signal(e_s, sub_model, aoa_grid, tof_grid)
        # At the true paths the denominator is ~0 and both variants
        # saturate; compare the denominators, which are exactly the
        # quantity the complement identity equates.
        assert np.allclose(1.0 / s1, 1.0 / s2, atol=1e-9)

    def test_spectrum_positive(self, model, sub_model):
        x = ideal_smoothed(model, [10.0], [50e-9], [1.0])
        e_n, _ = noise_subspace(covariance(x))
        spec = music_spectrum(
            e_n, sub_model, np.arange(-90, 91, 10.0), np.arange(0, 100e-9, 10e-9)
        )
        assert np.all(spec > 0)

    def test_sensor_count_mismatch_rejected(self, model, sub_model):
        with pytest.raises(EstimationError):
            music_spectrum(
                np.ones((10, 2), dtype=complex),
                sub_model,
                np.arange(-90, 91, 10.0),
                np.arange(0, 100e-9, 10e-9),
            )
        with pytest.raises(EstimationError):
            music_spectrum_from_signal(
                np.ones((10, 2), dtype=complex),
                sub_model,
                np.arange(-90, 91, 10.0),
                np.arange(0, 100e-9, 10e-9),
            )
        with pytest.raises(EstimationError):
            spectrum_value(np.ones((10, 2), dtype=complex), sub_model, 20.0, 40e-9)

    def test_spectrum_value_matches_grid(self, model, sub_model):
        x = ideal_smoothed(model, [20.0], [40e-9], [1.0])
        e_n, _ = noise_subspace(covariance(x))
        grid_val = music_spectrum(
            e_n, sub_model, np.array([20.0]), np.array([40e-9])
        )[0, 0]
        point_val = spectrum_value(e_n, sub_model, 20.0, 40e-9)
        assert point_val == pytest.approx(grid_val, rel=1e-9)


class TestProjectorKernel:
    """The projector-form kernel against the direct contraction oracle."""

    # Both forms reach ~1e-16 absolute error on these [0, 1] energies;
    # atol keeps rtol meaningful where an energy itself nears rounding level.
    RTOL, ATOL = 1e-9, 1e-12

    @given(case=kernel_cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_einsum_oracle(self, case):
        model, q, rank, aoas, tofs = case
        e_signal, e_noise = q[:, :rank], q[:, rank:]
        noise = music_spectrum(e_noise, model, aoas, tofs)
        np.testing.assert_allclose(
            1.0 / noise,
            einsum_energy(e_noise, model, aoas, tofs),
            rtol=self.RTOL,
            atol=self.ATOL,
        )
        # Precomputed steering (the estimator's cached path) on this side.
        signal = music_spectrum_from_signal(
            e_signal,
            model,
            aoas,
            tofs,
            phi=model.antenna_vector(aoas),
            omega=model.subcarrier_vector(tofs),
        )
        np.testing.assert_allclose(
            1.0 / signal,
            1.0 - einsum_energy(e_signal, model, aoas, tofs),
            rtol=self.RTOL,
            atol=self.ATOL,
        )
