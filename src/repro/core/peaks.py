"""2-D spectrum peak extraction (paper Alg. 2 line 7).

Finds local maxima of the MUSIC pseudospectrum, refines them with a
quadratic (log-domain) interpolation around the grid cell, and returns the
strongest few as (AoA, ToF, power) triples.  Only cells above the
relative-height threshold are tested against their neighbours; on MUSIC
spectra that is a few percent of the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.indexcache import index_vector
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SpectrumPeak:
    """One local maximum of the MUSIC spectrum.

    Attributes
    ----------
    aoa_deg, tof_s:
        Refined peak coordinates.
    power:
        Pseudospectrum value at the peak (linear).
    """

    aoa_deg: float
    tof_s: float
    power: float


def find_peaks_2d(
    spectrum: np.ndarray,
    aoa_grid_deg: np.ndarray,
    tof_grid_s: np.ndarray,
    max_peaks: int = 8,
    min_rel_height_db: float = 20.0,
    neighborhood: int = 3,
    exclude_border: bool = True,
) -> List[SpectrumPeak]:
    """Extract local maxima from a 2-D pseudospectrum.

    A peak is a cell ``>=`` every cell of its ``neighborhood`` window
    (nearest-edge indexing at the grid border), ``> 0``, and strictly
    above the window minimum (which rejects flat plateaus).  Only cells at
    or above ``min_rel_height_db`` below the strongest allowed cell are
    tested: every kept peak lies above that threshold whenever the
    strongest allowed cell is itself a peak.  When it is not, the
    threshold drops to the strongest peak found (or to zero if none was)
    and the same scan runs again, so the result is always the one a
    full-grid search would give.

    Parameters
    ----------
    spectrum:
        (len(aoa_grid), len(tof_grid)) finite values.
    aoa_grid_deg, tof_grid_s:
        The grids the spectrum was evaluated on.
    max_peaks:
        Keep at most this many strongest peaks (>= 1).
    min_rel_height_db:
        Drop peaks more than this many dB below the strongest peak (>= 0).
    neighborhood:
        Odd size of the local-maximum window (3 = 8-connected).
    exclude_border:
        Drop maxima on the outermost grid rows/columns.  A maximum pinned
        to the grid border is almost always the clipped shoulder of an
        out-of-window ridge, not a real path; such artifacts recur
        identically across packets and would otherwise form deceptively
        tight clusters.

    Returns
    -------
    list of :class:`SpectrumPeak`, strongest first; equal powers in
    row-major grid order.  Empty only for a flat spectrum.
    """
    spec = np.asarray(spectrum, dtype=float)
    if spec.ndim != 2:
        raise ConfigurationError(f"spectrum must be 2-D, got shape {spec.shape}")
    if spec.shape != (len(aoa_grid_deg), len(tof_grid_s)):
        raise ConfigurationError(
            f"spectrum shape {spec.shape} does not match grids "
            f"({len(aoa_grid_deg)}, {len(tof_grid_s)})"
        )
    if neighborhood % 2 == 0 or neighborhood < 3:
        raise ConfigurationError(f"neighborhood must be odd and >= 3, got {neighborhood}")
    if max_peaks < 1:
        raise ConfigurationError(f"max_peaks must be >= 1, got {max_peaks}")
    if not min_rel_height_db >= 0:
        raise ConfigurationError(f"min_rel_height_db must be >= 0, got {min_rel_height_db}")
    if not np.isfinite(spec).all():
        raise ConfigurationError("spectrum must be finite")

    allowed = spec[1:-1, 1:-1] if exclude_border else spec
    if allowed.size == 0:
        return []
    top = allowed.max()
    scale = 10.0 ** (-min_rel_height_db / 10.0)
    index, power = _local_maxima(spec, top * scale, neighborhood, exclude_border)
    if power.size == 0 or power[0] < top:
        # The top cell is not a peak, so the strongest peak (and with it
        # the floor) may lie below the first threshold: rescan from there.
        floor = power[0] * scale if power.size else 0.0
        index, power = _local_maxima(spec, floor, neighborhood, exclude_border)
    if power.size == 0:
        return []
    kept = (power >= power[0] * scale).nonzero()[0][:max_peaks]
    rows, cols = np.divmod(index[kept], spec.shape[1])
    aoa = _refine(spec, np.asarray(aoa_grid_deg, dtype=float), rows, cols)
    tof = _refine(spec.T, np.asarray(tof_grid_s, dtype=float), cols, rows)
    return [
        SpectrumPeak(aoa_deg=float(a), tof_s=float(t), power=float(p))
        for a, t, p in zip(aoa, tof, power[kept])
    ]


def interior_maxima(spectrum: np.ndarray) -> np.ndarray:
    """Ascending indices of a 1-D spectrum's interior local maxima.

    Index ``i`` (``0 < i < len - 1``) qualifies when ``spectrum[i]`` is
    ``>=`` both neighbours, so every interior point of a flat stretch
    counts; the two end points never do.  Callers choose their own
    threshold and their own fallback for a monotone spectrum.
    """
    s = np.asarray(spectrum)
    return np.nonzero((s[1:-1] >= s[:-2]) & (s[1:-1] >= s[2:]))[0] + 1


def _local_maxima(
    spec: np.ndarray, threshold: float, neighborhood: int, exclude_border: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """Flat indices and powers of the peaks among cells ``>= threshold``.

    Sorted by power descending, then flat (row-major) index ascending.
    """
    n_rows, n_cols = spec.shape
    flat = spec.ravel()
    index = np.flatnonzero(flat >= threshold)
    rows, cols = np.divmod(index, n_cols)
    if exclude_border:
        inside = (rows > 0) & (rows < n_rows - 1) & (cols > 0) & (cols < n_cols - 1)
        index, rows, cols = index[inside], rows[inside], cols[inside]
    # Clipping the window to the grid repeats the edge cell, which is
    # what ndimage's mode="nearest" means.
    offsets = (index_vector(neighborhood) - neighborhood // 2)[:, None]
    window_rows = np.clip(rows + offsets, 0, n_rows - 1)
    window_cols = np.clip(cols + offsets, 0, n_cols - 1)
    window = flat[window_rows[:, None, :] * n_cols + window_cols[None, :, :]]
    window = window.reshape(neighborhood * neighborhood, index.size)
    center = flat[index]
    is_peak = (
        (center >= window.max(axis=0))
        & (center > 0)
        & (center > window.min(axis=0) * (1.0 + 1e-12))
    )
    index, power = index[is_peak], center[is_peak]
    order = np.argsort(-power, kind="stable")
    return index[order], power[order]


def _refine(spec: np.ndarray, grid: np.ndarray, k: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Sub-cell positions along axis 0 of peaks at ``spec[k, other]``.

    Fits a parabola through the log of each peak and its two axis
    neighbours (MUSIC peaks are sharp, near-Gaussian in log) and moves at
    most half a cell; a peak on the first or last row, or one that is not
    strictly concave, stays on its grid point.
    """
    last = spec.shape[0] - 1
    below, above = np.maximum(k - 1, 0), np.minimum(k + 1, last)
    samples = np.stack([spec[below, other], spec[k, other], spec[above, other]])
    left, center, right = np.log(np.maximum(samples, 1e-300))
    denom = left - 2.0 * center + right
    offset = np.zeros_like(denom)
    np.divide(0.5 * (left - right), denom, out=offset, where=denom < -1e-300)
    offset = np.clip(offset, -0.5, 0.5)
    step = np.where(offset >= 0, grid[above] - grid[k], grid[k] - grid[below])
    return np.where((k == 0) | (k == last), grid[k], grid[k] + offset * step)


def merge_close_peaks(
    peaks: List[SpectrumPeak],
    min_aoa_sep_deg: float = 5.0,
    min_tof_sep_s: float = 10e-9,
) -> List[SpectrumPeak]:
    """Collapse peaks closer than the separation thresholds in *both* axes.

    Keeps the stronger peak of each close pair.  Peaks are assumed sorted
    strongest-first (as :func:`find_peaks_2d` returns them).
    """
    kept: List[SpectrumPeak] = []
    for peak in peaks:
        close = any(
            abs(peak.aoa_deg - k.aoa_deg) < min_aoa_sep_deg
            and abs(peak.tof_s - k.tof_s) < min_tof_sep_s
            for k in kept
        )
        if not close:
            kept.append(peak)
    return kept
