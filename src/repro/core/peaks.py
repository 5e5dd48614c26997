"""2-D spectrum peak extraction (paper Alg. 2 line 7).

Finds local maxima of the MUSIC pseudospectrum, refines them with a
quadratic (log-domain) interpolation around the grid cell, and returns the
strongest few as (AoA, ToF, power) triples.  Only cells above the
relative-height threshold are tested against their neighbours; on MUSIC
spectra that is a few percent of the grid.

The search has two halves so that an AP's packets share one pass:
:func:`peak_candidates` reduces each spectrum to its peak cells and their
neighbourhoods while the spectrum is live, and :func:`select_peaks`
sorts, thresholds, caps and refines every packet's peaks at once.
:func:`find_peaks_2d` is the one-spectrum case.

The per-packet half also runs on values that a monotone elementwise map
turns into the spectrum (:class:`SpectrumMap`), such as the MUSIC
projector energy: the grid is searched as it is, and only the gathered
cells are mapped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Protocol, Sequence

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


class PeakCandidates(NamedTuple):
    """One spectrum's peaks awaiting :func:`select_peaks`.

    Attributes
    ----------
    index:
        Flat (row-major) indices of the peak cells, ascending.
    window:
        ``(n * n, len(index))`` values of each peak's ``n x n``
        neighbourhood (nearest-edge indexing at the grid border),
        row-major within the window; the centre row is the peak itself.
    """

    index: np.ndarray
    window: np.ndarray


class SpectrumMap(Protocol):
    """A monotone elementwise map from searched values to spectrum values.

    ``__call__`` gives each element the bits it would get in any array;
    :attr:`increasing` tells a non-decreasing map from a non-increasing
    one; ``bound(t)`` inverts it conservatively: every value mapping to
    ``>= t`` is ``>=`` the bound if increasing, else ``<=`` it.
    """

    @property
    def increasing(self) -> bool:
        ...  # pragma: no cover

    def __call__(self, values: np.ndarray) -> np.ndarray:
        ...  # pragma: no cover

    def bound(self, threshold: float) -> float:
        ...  # pragma: no cover


class _Identity:
    """The map of a search over the spectrum itself."""

    increasing = True

    def __call__(self, values: np.ndarray) -> np.ndarray:
        return values

    def bound(self, threshold: float) -> float:
        return threshold


def peak_candidates(
    spectrum: np.ndarray,
    aoa_grid_deg: np.ndarray,
    tof_grid_s: np.ndarray,
    min_rel_height_db: float = 20.0,
    neighborhood: int = 3,
    exclude_border: bool = True,
    to_spectrum: SpectrumMap = _Identity(),
) -> PeakCandidates:
    """The per-packet half of the search: one spectrum's peak cells.

    Only cells at or above ``min_rel_height_db`` below the strongest
    allowed cell are tested.  When no peak has that top value, the
    strongest peak (and with it the floor) may lie lower: the threshold
    drops to the strongest peak found (or to zero if none was) and the
    cells are tested again, while this spectrum is still at hand.  Only
    the peaks and their windows are kept, so a packet stack holds a few
    dozen cells per packet, not a spectrum.  The other arguments are
    :func:`find_peaks_2d`'s.

    With ``to_spectrum`` the search runs on values that the map turns
    into the spectrum, mapping only what it reads: the top is the map of
    the allowed values' maximum (minimum for a non-increasing map), the
    candidates are the cells on the kept side of
    ``to_spectrum.bound(threshold)``, and their windows are mapped
    before the peak tests.  The map being elementwise and monotone, the
    result is bit for bit that of the search on the mapped grid.  The
    searched values must be finite.
    """
    values = np.asarray(spectrum, dtype=float)
    if values.ndim != 2:
        raise ConfigurationError(f"spectrum must be 2-D, got shape {values.shape}")
    if values.shape != (len(aoa_grid_deg), len(tof_grid_s)):
        raise ConfigurationError(
            f"spectrum shape {values.shape} does not match grids "
            f"({len(aoa_grid_deg)}, {len(tof_grid_s)})"
        )
    if not np.isfinite(values).all():
        raise ConfigurationError("spectrum must be finite")
    allowed = values[1:-1, 1:-1] if exclude_border else values
    if allowed.size == 0:
        return PeakCandidates(
            np.zeros(0, dtype=np.intp), np.zeros((neighborhood**2, 0))
        )
    extreme = allowed.max() if to_spectrum.increasing else allowed.min()
    top = to_spectrum(np.full(1, extreme))[0]
    scale = 10.0 ** (-min_rel_height_db / 10.0)
    found = _peaks(values, to_spectrum, top * scale, neighborhood, exclude_border)
    power = found.window[neighborhood**2 // 2]
    if not (power == top).any():
        floor = power.max() * scale if power.size else 0.0
        found = _peaks(values, to_spectrum, floor, neighborhood, exclude_border)
    return found


def select_peaks(
    candidates: Sequence[PeakCandidates],
    aoa_grid_deg: np.ndarray,
    tof_grid_s: np.ndarray,
    max_peaks: int = 8,
    min_rel_height_db: float = 20.0,
) -> List[List[SpectrumPeak]]:
    """The stacked half of the search: every packet's peaks in one pass.

    ``candidates`` holds one :class:`PeakCandidates` per packet, each
    from a spectrum on these grids.  Sorts every peak at once by
    (packet, power descending, flat index), keeps per packet the peaks
    within ``min_rel_height_db`` of its strongest, at most ``max_peaks``
    of them, and refines their positions from the neighbourhood windows.
    Returns one list per packet, as :func:`find_peaks_2d` would.
    """
    n_cols = len(tof_grid_s)
    if not candidates:
        return []
    packet = np.repeat(index_vector(len(candidates)), [len(c.index) for c in candidates])
    # One concatenation per AP stack: joining the packets is the stacking.
    index = np.concatenate([c.index for c in candidates])  # repro: noqa REP011
    window = np.concatenate([c.window for c in candidates], axis=1)  # repro: noqa REP011
    size = int(round(np.sqrt(window.shape[0])))
    mid = size * size // 2
    power = window[mid]
    order = np.lexsort((index, -power, packet))
    packet, index, window, power = packet[order], index[order], window[:, order], power[order]
    # Position of each packet's strongest peak; the sort puts it first.
    first = np.searchsorted(packet, packet)
    scale = 10.0 ** (-min_rel_height_db / 10.0)
    keep = (power >= power[first] * scale) & (
        index_vector(len(packet)) - first < max_peaks
    )
    packet, index, window, power = packet[keep], index[keep], window[:, keep], power[keep]
    rows, cols = np.divmod(index, n_cols)
    # Axis neighbours sit one window row (AoA) or one column (ToF) away.
    aoa_grid = np.asarray(aoa_grid_deg, dtype=float)
    aoa = _refine(window[mid - size], power, window[mid + size], aoa_grid, rows)
    tof_grid = np.asarray(tof_grid_s, dtype=float)
    tof = _refine(window[mid - 1], power, window[mid + 1], tof_grid, cols)
    peaks = [
        SpectrumPeak(aoa_deg=a, tof_s=t, power=p)
        for a, t, p in zip(aoa.tolist(), tof.tolist(), power.tolist())
    ]
    bounds = np.cumsum(np.bincount(packet, minlength=len(candidates))).tolist()
    return [peaks[lo:hi] for lo, hi in zip([0] + bounds[:-1], bounds)]


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
    full-grid search would give.  The one-packet case of
    :func:`peak_candidates` followed by :func:`select_peaks`.

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
    if neighborhood % 2 == 0 or neighborhood < 3:
        raise ConfigurationError(f"neighborhood must be odd and >= 3, got {neighborhood}")
    if max_peaks < 1:
        raise ConfigurationError(f"max_peaks must be >= 1, got {max_peaks}")
    if not min_rel_height_db >= 0:
        raise ConfigurationError(f"min_rel_height_db must be >= 0, got {min_rel_height_db}")
    found = peak_candidates(
        spectrum, aoa_grid_deg, tof_grid_s, min_rel_height_db, neighborhood, exclude_border
    )
    peaks = select_peaks([found], aoa_grid_deg, tof_grid_s, max_peaks, min_rel_height_db)
    return peaks[0]


def interior_maxima(spectrum: np.ndarray) -> np.ndarray:
    """Ascending indices of a 1-D spectrum's interior local maxima.

    Index ``i`` (``0 < i < len - 1``) qualifies when ``spectrum[i]`` is
    ``>=`` both neighbours, so every interior point of a flat stretch
    counts; the two end points never do.  Callers choose their own
    threshold and their own fallback for a monotone spectrum.
    """
    s = np.asarray(spectrum)
    return np.nonzero((s[1:-1] >= s[:-2]) & (s[1:-1] >= s[2:]))[0] + 1


def _peaks(
    values: np.ndarray,
    to_spectrum: SpectrumMap,
    threshold: float,
    neighborhood: int,
    exclude_border: bool,
) -> PeakCandidates:
    """The peaks among the allowed cells mapping to ``>= threshold``.

    A peak is ``>=`` its whole window, ``> 0``, and strictly above the
    window minimum, all in mapped values; the windows are returned
    mapped.
    """
    n_rows, n_cols = values.shape
    flat = values.ravel()
    bound = to_spectrum.bound(threshold)
    index = np.flatnonzero(flat >= bound if to_spectrum.increasing else flat <= bound)
    rows, cols = np.divmod(index, n_cols)
    if exclude_border:
        inside = (rows > 0) & (rows < n_rows - 1) & (cols > 0) & (cols < n_cols - 1)
        index, rows, cols = index[inside], rows[inside], cols[inside]
    offsets = (index_vector(neighborhood) - neighborhood // 2)[:, None]
    if exclude_border and neighborhood == 3:
        # Every allowed cell is one cell inside the grid, so its 3 x 3
        # window is too: gather it straight from the flat index.
        window = flat[index + (offsets * n_cols + offsets.T).reshape(-1, 1)]
    else:
        # Clipping the window to the grid repeats the edge cell, which is
        # what ndimage's mode="nearest" means.
        window_rows = np.clip(rows + offsets, 0, n_rows - 1)
        window_cols = np.clip(cols + offsets, 0, n_cols - 1)
        window = flat[window_rows[:, None, :] * n_cols + window_cols[None, :, :]]
    window = to_spectrum(window.reshape(neighborhood * neighborhood, index.size))
    center = window[neighborhood**2 // 2]
    is_peak = (
        (center >= threshold)
        & (center >= window.max(axis=0))
        & (center > 0)
        & (center > window.min(axis=0) * (1.0 + 1e-12))
    )
    return PeakCandidates(index[is_peak], window[:, is_peak])


def _refine(
    below: np.ndarray, centre: np.ndarray, above: np.ndarray, grid: np.ndarray, k: np.ndarray
) -> np.ndarray:
    """Sub-cell positions along one axis of peaks at grid index ``k``.

    ``below``/``above`` are each peak's two axis neighbours (the edge
    cell itself at the border).  Fits a parabola through the log of the
    three samples (MUSIC peaks are sharp, near-Gaussian in log) and moves
    at most half a cell; a peak on the first or last grid point, or one
    that is not strictly concave, stays on its grid point.
    """
    last = len(grid) - 1
    lower, upper = np.maximum(k - 1, 0), np.minimum(k + 1, last)
    samples = np.stack([below, centre, above])
    left, center, right = np.log(np.maximum(samples, 1e-300))
    denom = left - 2.0 * center + right
    offset = np.zeros_like(denom)
    np.divide(0.5 * (left - right), denom, out=offset, where=denom < -1e-300)
    offset = np.clip(offset, -0.5, 0.5)
    step = np.where(offset >= 0, grid[upper] - grid[k], grid[k] - grid[lower])
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
