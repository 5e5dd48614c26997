"""Tests for steering vectors (paper Eqs. 1, 2, 6, 7)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import reference_steering_matrix
from repro.constants import SPEED_OF_LIGHT
from repro.core.steering import SteeringModel
from repro.errors import ConfigurationError


@pytest.fixture()
def model():
    return SteeringModel(
        num_antennas=3,
        num_subcarriers=30,
        antenna_spacing_m=0.029,
        carrier_freq_hz=5.19e9,
        subcarrier_spacing_hz=1.25e6,
    )


class TestScalars:
    def test_phi_at_boresight_is_one(self, model):
        assert model.phi(0.0) == pytest.approx(1.0)

    def test_phi_unit_modulus(self, model):
        for aoa in (-80.0, -10.0, 33.0, 90.0):
            assert abs(model.phi(aoa)) == pytest.approx(1.0)

    def test_phi_matches_eq1(self, model):
        aoa = 30.0
        expected = np.exp(
            -2j * np.pi * 0.029 * np.sin(np.deg2rad(aoa)) * 5.19e9 / SPEED_OF_LIGHT
        )
        assert model.phi(aoa) == pytest.approx(expected)

    def test_omega_at_zero_tof_is_one(self, model):
        assert model.omega(0.0) == pytest.approx(1.0)

    def test_omega_matches_eq6(self, model):
        tof = 100e-9
        expected = np.exp(-2j * np.pi * 1.25e6 * tof)
        assert model.omega(tof) == pytest.approx(expected)

    def test_omega_periodicity(self, model):
        # Omega has period 1/f_delta = 800 ns.
        assert model.omega(30e-9) == pytest.approx(model.omega(830e-9))
        assert model.tof_ambiguity_s == pytest.approx(800e-9)

    def test_vectorized_phi(self, model):
        aoas = np.array([-30.0, 0.0, 30.0])
        out = model.phi(aoas)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(1.0)


class TestVectors:
    def test_antenna_vector_geometric_progression(self, model):
        v = model.antenna_vector(25.0)
        assert v.shape == (3,)
        assert v[0] == pytest.approx(1.0)
        assert v[2] / v[1] == pytest.approx(v[1] / v[0])

    def test_subcarrier_vector_geometric_progression(self, model):
        v = model.subcarrier_vector(70e-9)
        assert v.shape == (30,)
        ratios = v[1:] / v[:-1]
        assert np.allclose(ratios, ratios[0])

    def test_steering_vector_is_kronecker_product(self, model):
        aoa, tof = 35.0, 90e-9
        a = model.steering_vector(aoa, tof)
        expected = np.kron(model.antenna_vector(aoa), model.subcarrier_vector(tof))
        assert a.shape == (90,)
        assert np.allclose(a, expected)

    def test_steering_vector_entry_formula(self, model):
        # Entry (m, n) must be Phi^m * Omega^n (Eq. 7, antenna-major).
        aoa, tof = -20.0, 50e-9
        a = model.steering_vector(aoa, tof)
        phi, omega = model.phi(aoa), model.omega(tof)
        for m in (0, 1, 2):
            for n in (0, 7, 29):
                assert a[m * 30 + n] == pytest.approx(phi**m * omega**n)

    def test_steering_vector_unit_modulus(self, model):
        a = model.steering_vector(12.0, 33e-9)
        assert np.allclose(np.abs(a), 1.0)

    def test_steering_matrix_columns(self, model):
        mat = model.steering_matrix([10.0, -30.0], [10e-9, 80e-9])
        assert mat.shape == (90, 2)
        assert np.allclose(mat[:, 0], model.steering_vector(10.0, 10e-9))
        assert np.allclose(mat[:, 1], model.steering_vector(-30.0, 80e-9))

    def test_steering_matrix_length_mismatch(self, model):
        with pytest.raises(ConfigurationError):
            model.steering_matrix([10.0], [10e-9, 20e-9])

    def test_steering_matrix_without_paths(self, model):
        mat = model.steering_matrix([], [])
        assert mat.shape == (90, 0)
        assert mat.dtype == np.complex128


FULL_MODEL = SteeringModel(3, 30, 0.029, 5.19e9, 1.25e6)


@settings(max_examples=100, deadline=None)
@given(
    subarray=st.booleans(),
    paths=st.lists(
        st.tuples(
            st.floats(min_value=-90.0, max_value=90.0),
            st.floats(min_value=-100e-9, max_value=400e-9),
        ),
        max_size=14,
    ),
)
def test_steering_matrix_matches_kron_reference(subarray, paths):
    model = FULL_MODEL.subarray_model(2, 15) if subarray else FULL_MODEL
    aoas = [a for a, _ in paths]
    tofs = [t for _, t in paths]
    assert np.array_equal(
        model.steering_matrix(aoas, tofs), reference_steering_matrix(model, aoas, tofs)
    )


class TestConstruction:
    def test_for_grid(self, grid):
        model = SteeringModel.for_grid(grid, num_antennas=3, antenna_spacing_m=0.029)
        assert model.num_subcarriers == 30
        assert model.subcarrier_spacing_hz == pytest.approx(1.25e6)
        assert model.num_sensors == 90

    def test_for_grid_with_subarray_size(self, grid):
        model = SteeringModel.for_grid(
            grid, num_antennas=2, antenna_spacing_m=0.029, num_subcarriers=15
        )
        assert model.num_sensors == 30

    def test_subarray_model(self, model):
        sub = model.subarray_model(2, 15)
        assert sub.num_antennas == 2
        assert sub.num_subcarriers == 15
        assert sub.carrier_freq_hz == model.carrier_freq_hz

    def test_subarray_cannot_grow(self, model):
        with pytest.raises(ConfigurationError):
            model.subarray_model(4, 15)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            SteeringModel(0, 30, 0.03, 5e9, 1e6)
        with pytest.raises(ConfigurationError):
            SteeringModel(3, 30, -0.03, 5e9, 1e6)
