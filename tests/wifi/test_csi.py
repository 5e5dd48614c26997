"""Tests for repro.wifi.csi containers."""

import numpy as np
import pytest

from repro.errors import CsiShapeError
from repro.wifi.csi import CsiFrame, CsiTrace, merge_traces, validate_csi_matrix


def make_csi(num_antennas=3, num_subcarriers=30, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(num_antennas, num_subcarriers)) + 1j * rng.normal(
        size=(num_antennas, num_subcarriers)
    )


class TestValidate:
    def test_accepts_complex_matrix(self):
        out = validate_csi_matrix(make_csi())
        assert out.dtype == np.complex128

    def test_accepts_real_matrix_as_complex(self):
        out = validate_csi_matrix(np.ones((2, 5)))
        assert out.dtype == np.complex128

    def test_rejects_1d(self):
        with pytest.raises(CsiShapeError):
            validate_csi_matrix(np.ones(10))

    def test_rejects_tiny(self):
        with pytest.raises(CsiShapeError):
            validate_csi_matrix(np.ones((1, 30)))
        with pytest.raises(CsiShapeError):
            validate_csi_matrix(np.ones((3, 1)))

    def test_rejects_nan(self):
        csi = make_csi()
        csi[0, 0] = np.nan
        with pytest.raises(CsiShapeError):
            validate_csi_matrix(csi)

    def test_rejects_inf_imag(self):
        csi = make_csi()
        csi[1, 2] = 1 + 1j * np.inf
        with pytest.raises(CsiShapeError):
            validate_csi_matrix(csi)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_real_part_alone(self, bad):
        csi = make_csi()
        csi[2, 7] = complex(bad, 0.5)
        assert np.isfinite(csi.imag).all()
        with pytest.raises(CsiShapeError):
            validate_csi_matrix(csi)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_imaginary_part_alone(self, bad):
        csi = make_csi()
        csi[0, 29] = complex(0.5, bad)
        assert np.isfinite(csi.real).all()
        with pytest.raises(CsiShapeError):
            validate_csi_matrix(csi)


class TestCsiFrame:
    def test_shape_properties(self):
        frame = CsiFrame(csi=make_csi())
        assert frame.num_antennas == 3
        assert frame.num_subcarriers == 30

    def test_phase_and_magnitude(self):
        csi = np.full((2, 4), 2.0 * np.exp(1j * 0.5))
        frame = CsiFrame(csi=csi)
        assert np.allclose(frame.phase(), 0.5)
        assert np.allclose(frame.magnitude_db(), 20 * np.log10(2.0))

    def test_unwrapped_phase_monotone_ramp(self):
        n = np.arange(30)
        csi = np.exp(-1j * 0.9 * n)[None, :].repeat(3, axis=0)
        psi = CsiFrame(csi=csi).unwrapped_phase()
        # Unwrapped ramp must decrease linearly without 2pi jumps.
        steps = np.diff(psi, axis=1)
        assert np.allclose(steps, -0.9)

    def test_stacked_is_antenna_major(self):
        csi = np.arange(6).reshape(2, 3) + 0j
        stacked = CsiFrame(csi=csi).stacked()
        assert np.allclose(stacked, [0, 1, 2, 3, 4, 5])


class TestCsiTrace:
    def test_append_and_len(self):
        trace = CsiTrace()
        trace.append(CsiFrame(csi=make_csi(seed=1)))
        trace.append(CsiFrame(csi=make_csi(seed=2)))
        assert len(trace) == 2

    def test_append_shape_mismatch_rejected(self):
        trace = CsiTrace([CsiFrame(csi=make_csi())])
        with pytest.raises(CsiShapeError):
            trace.append(CsiFrame(csi=make_csi(num_subcarriers=10)))

    def test_mixed_shapes_rejected_at_construction(self):
        with pytest.raises(CsiShapeError):
            CsiTrace(
                [
                    CsiFrame(csi=make_csi()),
                    CsiFrame(csi=make_csi(num_antennas=2)),
                ]
            )

    def test_csi_array_shape(self):
        trace = CsiTrace([CsiFrame(csi=make_csi(seed=s)) for s in range(5)])
        assert trace.csi_array().shape == (5, 3, 30)

    def test_slice_returns_trace(self):
        trace = CsiTrace([CsiFrame(csi=make_csi(seed=s)) for s in range(5)])
        sub = trace[1:3]
        assert isinstance(sub, CsiTrace)
        assert len(sub) == 2

    def test_median_rssi_ignores_nan(self):
        frames = [
            CsiFrame(csi=make_csi(seed=1), rssi_dbm=-40.0),
            CsiFrame(csi=make_csi(seed=2), rssi_dbm=float("nan")),
            CsiFrame(csi=make_csi(seed=3), rssi_dbm=-50.0),
        ]
        assert CsiTrace(frames).median_rssi_dbm() == pytest.approx(-45.0)

    def test_median_rssi_all_nan(self):
        frames = [CsiFrame(csi=make_csi(seed=1))]
        assert np.isnan(CsiTrace(frames).median_rssi_dbm())

    def test_windows_chop_like_the_paper(self):
        trace = CsiTrace([CsiFrame(csi=make_csi(seed=s)) for s in range(100)])
        windows = list(trace.windows(40))
        assert len(windows) == 2  # trailing 20 frames dropped
        assert all(len(w) == 40 for w in windows)

    def test_windows_with_step(self):
        trace = CsiTrace([CsiFrame(csi=make_csi(seed=s)) for s in range(10)])
        windows = list(trace.windows(4, step=2))
        assert len(windows) == 4

    def test_windows_validation(self):
        trace = CsiTrace([CsiFrame(csi=make_csi())])
        with pytest.raises(ValueError):
            list(trace.windows(0))
        with pytest.raises(ValueError):
            list(trace.windows(1, step=0))

    def test_empty_trace_guards(self):
        with pytest.raises(CsiShapeError):
            CsiTrace().csi_array()
        with pytest.raises(CsiShapeError):
            _ = CsiTrace().num_antennas

    def test_from_arrays(self):
        arr = np.stack([make_csi(seed=s) for s in range(3)])
        trace = CsiTrace.from_arrays(arr, rssi_dbm=[-40, -41, -42])
        assert len(trace) == 3
        assert trace[1].rssi_dbm == -41

    def test_from_arrays_metadata_mismatch(self):
        arr = np.stack([make_csi(seed=s) for s in range(3)])
        with pytest.raises(CsiShapeError):
            CsiTrace.from_arrays(arr, rssi_dbm=[-40])

    def test_from_arrays_rejects_2d(self):
        with pytest.raises(CsiShapeError):
            CsiTrace.from_arrays(make_csi())

    def test_merge_traces(self):
        t1 = CsiTrace([CsiFrame(csi=make_csi(seed=1))])
        t2 = CsiTrace([CsiFrame(csi=make_csi(seed=2)), CsiFrame(csi=make_csi(seed=3))])
        merged = merge_traces([t1, t2])
        assert len(merged) == 3
