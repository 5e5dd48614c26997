"""Tests for 2-D spectrum peak extraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import reference_find_peaks_2d, reference_full_grid_peaks
from repro import Intel5300
from repro.core.estimator import JointEstimator
from repro.core.music import EnergyMap, MusicConfig, subspace_energy, subspace_spectrum
from repro.core.peaks import (
    SpectrumPeak,
    find_peaks_2d,
    interior_maxima,
    merge_close_peaks,
    peak_candidates,
    select_peaks,
)
from repro.errors import ConfigurationError
from repro.runtime.cache import default_steering_cache
from repro.testbed.layout import office_testbed
from repro.testbed.scenarios import office_locations

AOA_GRID = np.arange(-90.0, 91.0, 1.0)
TOF_GRID = np.arange(0.0, 200e-9, 2.5e-9)


def gaussian_bump(center_i, center_j, height, width=3.0):
    ii, jj = np.meshgrid(
        np.arange(len(AOA_GRID)), np.arange(len(TOF_GRID)), indexing="ij"
    )
    return height * np.exp(-((ii - center_i) ** 2 + (jj - center_j) ** 2) / (2 * width**2))


class TestFindPeaks:
    def test_single_peak_found(self):
        spec = gaussian_bump(60, 30, 100.0) + 0.1
        peaks = find_peaks_2d(spec, AOA_GRID, TOF_GRID)
        assert len(peaks) == 1
        assert peaks[0].aoa_deg == pytest.approx(AOA_GRID[60], abs=0.5)
        assert peaks[0].tof_s == pytest.approx(TOF_GRID[30], abs=2.5e-9)

    def test_two_peaks_ordered_by_power(self):
        spec = gaussian_bump(40, 20, 100.0) + gaussian_bump(120, 60, 50.0) + 0.1
        peaks = find_peaks_2d(spec, AOA_GRID, TOF_GRID)
        assert len(peaks) == 2
        assert peaks[0].power > peaks[1].power
        assert peaks[0].aoa_deg == pytest.approx(AOA_GRID[40], abs=0.5)

    def test_weak_peak_dropped_by_threshold(self):
        spec = gaussian_bump(40, 20, 100.0) + gaussian_bump(120, 60, 0.5) + 0.01
        peaks = find_peaks_2d(spec, AOA_GRID, TOF_GRID, min_rel_height_db=20.0)
        assert len(peaks) == 1

    def test_max_peaks_cap(self):
        spec = 0.1 + sum(
            gaussian_bump(20 + 30 * k, 10 + 12 * k, 100.0 - k) for k in range(5)
        )
        peaks = find_peaks_2d(spec, AOA_GRID, TOF_GRID, max_peaks=3)
        assert len(peaks) == 3

    def test_border_peaks_excluded(self):
        spec = np.full((len(AOA_GRID), len(TOF_GRID)), 0.1)
        spec[0, 20] = 100.0  # ridge clipped at the -90 deg border
        assert find_peaks_2d(spec, AOA_GRID, TOF_GRID) == []
        kept = find_peaks_2d(spec, AOA_GRID, TOF_GRID, exclude_border=False)
        assert len(kept) == 1

    def test_flat_spectrum_yields_nothing(self):
        spec = np.ones((len(AOA_GRID), len(TOF_GRID)))
        assert find_peaks_2d(spec, AOA_GRID, TOF_GRID) == []

    def test_subcell_refinement(self):
        # A peak whose true center falls between grid cells must be
        # interpolated toward it.
        ii, jj = np.meshgrid(
            np.arange(len(AOA_GRID)), np.arange(len(TOF_GRID)), indexing="ij"
        )
        spec = 0.01 + 100.0 * np.exp(-((ii - 60.4) ** 2 + (jj - 30.0) ** 2) / 8.0)
        peaks = find_peaks_2d(spec, AOA_GRID, TOF_GRID)
        assert peaks[0].aoa_deg == pytest.approx(AOA_GRID[0] + 60.4, abs=0.1)

    def test_shape_validation(self):
        with pytest.raises(ConfigurationError):
            find_peaks_2d(np.ones(10), AOA_GRID, TOF_GRID)
        with pytest.raises(ConfigurationError):
            find_peaks_2d(np.ones((5, 5)), AOA_GRID, TOF_GRID)
        with pytest.raises(ConfigurationError):
            find_peaks_2d(
                np.ones((len(AOA_GRID), len(TOF_GRID))),
                AOA_GRID,
                TOF_GRID,
                neighborhood=4,
            )


    def test_equal_powers_in_row_major_order(self):
        spec = np.full((len(AOA_GRID), len(TOF_GRID)), 0.1)
        for i, j in [(100, 50), (20, 70), (20, 30), (140, 10)]:
            spec[i, j] = 5.0
        peaks = find_peaks_2d(spec, AOA_GRID, TOF_GRID)
        assert [(p.aoa_deg, p.tof_s) for p in peaks] == [
            (AOA_GRID[i], TOF_GRID[j]) for i, j in [(20, 30), (20, 70), (100, 50), (140, 10)]
        ]
        assert find_peaks_2d(spec, AOA_GRID, TOF_GRID, max_peaks=2) == peaks[:2]
        assert peaks == reference_full_grid_peaks(spec, AOA_GRID, TOF_GRID)

    @pytest.mark.parametrize("runner_up", [None, 10.0])
    def test_top_cell_beside_a_larger_border_cell(self, runner_up):
        # The strongest interior cell is not a peak (its border neighbour
        # is larger), so the first threshold, 1% of it, is too high: the
        # 0.4 peak is only found by rescanning below the strongest peak.
        spec = np.full((len(AOA_GRID), len(TOF_GRID)), 0.1)
        spec[0, 20] = 100.0
        spec[1, 20] = 50.0
        spec[90, 40] = 0.4
        if runner_up is not None:
            spec[60, 60] = runner_up
        peaks = find_peaks_2d(spec, AOA_GRID, TOF_GRID)
        expected = [0.4] if runner_up is None else [runner_up, 0.4]
        assert [p.power for p in peaks] == expected
        assert peaks == reference_full_grid_peaks(spec, AOA_GRID, TOF_GRID)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_peaks": 0},
            {"max_peaks": -3},
            {"min_rel_height_db": -1.0},
            {"min_rel_height_db": float("nan")},
        ],
    )
    def test_settings_that_keep_nothing_rejected(self, kwargs):
        spec = gaussian_bump(60, 30, 100.0) + 0.1
        with pytest.raises(ConfigurationError):
            find_peaks_2d(spec, AOA_GRID, TOF_GRID, **kwargs)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("cell", [(60, 30), (0, 0)])
    def test_non_finite_spectrum_rejected(self, value, cell):
        spec = gaussian_bump(60, 30, 100.0) + 0.1
        spec[cell] = value
        with pytest.raises(ConfigurationError, match="finite"):
            find_peaks_2d(spec, AOA_GRID, TOF_GRID)


@st.composite
def peak_cases(draw):
    """(spectrum, aoa grid, tof grid, keyword arguments) for the oracle."""
    rows = draw(st.integers(min_value=1, max_value=24))
    cols = draw(st.integers(min_value=1, max_value=24))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kind = draw(st.sampled_from(["continuous", "plateaus", "border"]))
    if kind == "plateaus":
        spec = rng.integers(0, 4, size=(rows, cols)).astype(float)
    else:
        spec = rng.exponential(size=(rows, cols)) ** 3
    if kind == "border":
        i = draw(st.sampled_from([0, rows - 1]))
        j = draw(st.integers(min_value=0, max_value=cols - 1))
        spec[i, j] = spec.max() * draw(st.floats(min_value=1.0, max_value=1e3))
        spec = spec if draw(st.booleans()) else spec.T.copy()
    kwargs = {
        "max_peaks": draw(st.integers(min_value=1, max_value=12)),
        "min_rel_height_db": draw(st.floats(min_value=0.0, max_value=40.0)),
        "neighborhood": draw(st.sampled_from([3, 5])),
        "exclude_border": draw(st.booleans()),
    }
    aoa = np.linspace(-90.0, 90.0, spec.shape[0])
    tof = np.linspace(0.0, 200e-9, spec.shape[1])
    return spec, aoa, tof, kwargs


@settings(max_examples=300, deadline=None)
@given(peak_cases())
def test_matches_full_grid_reference(case):
    spec, aoa, tof, kwargs = case
    assert find_peaks_2d(spec, aoa, tof, **kwargs) == reference_full_grid_peaks(
        spec, aoa, tof, **kwargs
    )


def test_office_spectra_match_full_grid_reference():
    testbed = office_testbed()
    sim = testbed.simulator()
    rng = np.random.default_rng(7)
    compared = 0
    for target in office_locations(testbed)[:2]:
        for ap in testbed.office_aps()[:3]:
            estimator = JointEstimator.for_intel5300(ap, Intel5300().grid())
            trace = sim.generate_trace(target.position, ap, 2, rng=rng)
            for frame in trace:
                spec, aoa, tof = estimator.spectrum(frame.csi)
                kwargs = {"max_peaks": 12, "min_rel_height_db": 20.0}
                peaks = find_peaks_2d(spec, aoa, tof, **kwargs)
                assert peaks
                assert peaks == reference_full_grid_peaks(spec, aoa, tof, **kwargs)
                compared += 1
    assert compared == 12


class TestInteriorMaxima:
    def test_monotone_has_none(self):
        assert interior_maxima(np.arange(6.0)).size == 0
        assert interior_maxima(np.arange(6.0)[::-1]).size == 0

    def test_flat_counts_every_interior_point(self):
        assert interior_maxima(np.ones(5)).tolist() == [1, 2, 3]

    def test_length_three(self):
        assert interior_maxima(np.array([0.0, 2.0, 1.0])).tolist() == [1]
        assert interior_maxima(np.array([2.0, 1.0, 3.0])).size == 0

    def test_shorter_than_three_has_none(self):
        assert interior_maxima(np.array([1.0, 2.0])).size == 0

    def test_ascending_indices_and_plateau_edges(self):
        spectrum = np.array([0.0, 3.0, 1.0, 2.0, 2.0, 0.0, 5.0, 4.0])
        assert interior_maxima(spectrum).tolist() == [1, 3, 4, 6]


class TestMerge:
    def test_close_peaks_merged_keeping_strongest(self):
        peaks = [
            SpectrumPeak(10.0, 50e-9, 100.0),
            SpectrumPeak(12.0, 52e-9, 80.0),  # close in both axes
            SpectrumPeak(40.0, 50e-9, 60.0),
        ]
        merged = merge_close_peaks(peaks)
        assert len(merged) == 2
        assert merged[0].power == 100.0

    def test_close_in_one_axis_only_not_merged(self):
        peaks = [
            SpectrumPeak(10.0, 50e-9, 100.0),
            SpectrumPeak(11.0, 150e-9, 80.0),  # same AoA, far ToF
        ]
        assert len(merge_close_peaks(peaks)) == 2

    def test_empty_input(self):
        assert merge_close_peaks([]) == []


# ----------------------------------------------------------------------
# The search on projector energy: peak_candidates with a SpectrumMap
# ----------------------------------------------------------------------
SUB_MODEL = JointEstimator.for_intel5300(
    office_testbed().office_aps()[0], Intel5300().grid()
).subarray_model
SUB_GRIDS = default_steering_cache().grids_for(SUB_MODEL, MusicConfig())


def _mapped_peaks(energy, to_spectrum, aoa, tof, max_peaks=8, min_rel_height_db=20.0):
    """The estimator's path: search the energy, then the stacked select.

    The candidates must also be those of the search over the mapped grid.
    """
    found = peak_candidates(
        energy, aoa, tof, min_rel_height_db=min_rel_height_db, to_spectrum=to_spectrum
    )
    on_spectrum = peak_candidates(
        to_spectrum(energy), aoa, tof, min_rel_height_db=min_rel_height_db
    )
    assert np.array_equal(found.index, on_spectrum.index)
    assert np.array_equal(found.window, on_spectrum.window)
    return select_peaks([found], aoa, tof, max_peaks, min_rel_height_db)[0]


def _energy_near(to_spectrum, value):
    """An energy whose mapped value is ``value`` up to rounding."""
    if to_spectrum.from_signal:
        return to_spectrum.sensors * (1.0 - 1.0 / value)
    return to_spectrum.sensors / value


def _energy_mapping_to(to_spectrum, value):
    """An energy whose mapped value is exactly ``value``, or None.

    Searched within 64 ulps of the inverse; near the signal map's pole
    not every spectrum value is the image of an energy.
    """
    below = above = _energy_near(to_spectrum, value)
    for _ in range(64):
        for e in (below, above):
            if to_spectrum(np.full(1, e))[0] == value:
                return e
        below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
    return None


def _mapped(to_spectrum, energy):
    return to_spectrum(np.full(1, energy))[0]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rank=st.integers(min_value=1, max_value=SUB_MODEL.num_sensors - 1),
    max_peaks=st.integers(min_value=1, max_value=12),
    min_rel_height_db=st.floats(min_value=0.0, max_value=40.0),
)
def test_energy_search_matches_reference_on_random_bases(
    seed, rank, max_peaks, min_rel_height_db
):
    # Ranks up to half the sensors search the signal basis's energy
    # (increasing map), larger ones the noise basis's (decreasing map).
    rng = np.random.default_rng(seed)
    size = SUB_MODEL.num_sensors
    basis, _ = np.linalg.qr(rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)))
    energy, to_spectrum = subspace_energy(basis[:, :rank], basis[:, rank:], SUB_MODEL, SUB_GRIDS)
    assert to_spectrum.from_signal == (rank <= size - rank)
    aoa, tof = SUB_GRIDS.aoa_grid_deg, SUB_GRIDS.tof_grid_s
    spectrum = to_spectrum(energy)
    assert np.array_equal(
        spectrum, subspace_spectrum(basis[:, :rank], basis[:, rank:], SUB_MODEL, SUB_GRIDS)
    )
    got = _mapped_peaks(energy, to_spectrum, aoa, tof, max_peaks, min_rel_height_db)
    assert got == reference_find_peaks_2d(
        spectrum, aoa, tof, max_peaks=max_peaks, min_rel_height_db=min_rel_height_db
    )


class TestEnergySearchEdges:
    """Crafted energies where the energy-side threshold must be exact."""

    AOA = np.linspace(-90.0, 90.0, 12)
    TOF = np.linspace(0.0, 200e-9, 14)

    def _grid(self, to_spectrum):
        # Background mapping to a spectrum value of about 1.5.
        return np.full((len(self.AOA), len(self.TOF)), _energy_near(to_spectrum, 1.5))

    def _check(self, energy, to_spectrum, **kwargs):
        got = _mapped_peaks(energy, to_spectrum, self.AOA, self.TOF, **kwargs)
        want = reference_find_peaks_2d(to_spectrum(energy), self.AOA, self.TOF, **kwargs)
        assert got == want
        return got

    @pytest.mark.parametrize("from_signal", [False, True])
    def test_threshold_exactly_on_a_cell(self, from_signal):
        to_spectrum = EnergyMap(30, from_signal)
        energy = self._grid(to_spectrum)
        # Step the top energy until 1% of its value is itself the image
        # of an energy, and put that energy on a second, isolated peak.
        top = _energy_near(to_spectrum, 400.0)
        step = np.inf if from_signal else -np.inf
        for _ in range(64):
            threshold = _mapped(to_spectrum, top) * 10.0 ** (-20.0 / 10.0)
            on_threshold = _energy_mapping_to(to_spectrum, threshold)
            if on_threshold is not None:
                break
            top = np.nextafter(top, step)
        assert on_threshold is not None
        energy[3, 3] = top
        energy[8, 9] = on_threshold
        peaks = self._check(energy, to_spectrum)
        assert [p.power for p in peaks] == [_mapped(to_spectrum, top), threshold]
        # A smaller mapped value and the second peak is gone.
        while _mapped(to_spectrum, energy[8, 9]) >= threshold:
            energy[8, 9] = np.nextafter(energy[8, 9], -step)
        assert len(self._check(energy, to_spectrum)) == 1

    @pytest.mark.parametrize("from_signal", [False, True])
    def test_tied_top_cells(self, from_signal):
        to_spectrum = EnergyMap(30, from_signal)
        energy = self._grid(to_spectrum)
        for cell in [(2, 2), (2, 3), (7, 10), (9, 4)]:
            energy[cell] = _energy_near(to_spectrum, 1e6)
        peaks = self._check(energy, to_spectrum, min_rel_height_db=0.0)
        assert len(peaks) == 4

    def test_clamped_cells_tie_at_the_top(self):
        # Noise energies at or below 30e-18 all map to the 1/1e-18 ceiling.
        to_spectrum = EnergyMap(30, from_signal=False)
        energy = self._grid(to_spectrum)
        for cell, value in [((2, 2), -5.0), ((6, 6), 0.0), ((9, 11), 1e-30)]:
            energy[cell] = value
        peaks = self._check(energy, to_spectrum, min_rel_height_db=0.0)
        assert [p.power for p in peaks] == [_mapped(to_spectrum, 0.0)] * 3

    @pytest.mark.parametrize("from_signal", [False, True])
    def test_rescan_when_the_top_cell_is_not_a_peak(self, from_signal):
        # The strongest interior cell sits beside a larger border cell, so
        # the peak at 0.4% of it is only found by the rescan.
        to_spectrum = EnergyMap(30, from_signal)
        energy = self._grid(to_spectrum)
        energy[0, 5] = _energy_near(to_spectrum, 1e4)
        energy[1, 5] = _energy_near(to_spectrum, 5e3)
        energy[7, 8] = _energy_near(to_spectrum, 20.0)
        peaks = self._check(energy, to_spectrum)
        assert [p.power for p in peaks] == [_mapped(to_spectrum, energy[7, 8])]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_energy_rejected(self, value):
        energy = self._grid(EnergyMap(30, False))
        energy[4, 4] = value
        with pytest.raises(ConfigurationError, match="finite"):
            peak_candidates(energy, self.AOA, self.TOF, to_spectrum=EnergyMap(30, False))
