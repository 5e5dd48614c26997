"""Antenna-only MUSIC AoA estimation — the paper's "MUSIC-AoA" baseline.

This is the AoA algorithm of Phaser [8] / ArrayTrack [1] constrained to a
commodity 3-antenna NIC (paper Sec. 3.1.1 and 4.4.1): the measurement
matrix is the raw CSI (antennas x subcarriers), each subcarrier providing
one snapshot of the antenna array; MUSIC runs on the (M x M) covariance
with only the AoA-induced inter-antenna phases modeled.  With M = 3 at
most 2 paths can be resolved — the limitation SpotFi's joint estimation
removes.

Forward-backward averaging and antenna-domain spatial smoothing (the [9]
technique ArrayTrack uses) are implemented as options; smoothing trades
aperture for decorrelation of coherent multipath.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.core.estimator import prepare_csi_stack
from repro.core.indexcache import grid_range
from repro.core.music import MusicConfig, covariances, subspaces
from repro.core.peaks import SpectrumPeak, interior_maxima
from repro.core.steering import SteeringModel
from repro.errors import ConfigurationError, EstimationError
from repro.wifi.csi import CsiTrace


@dataclass(frozen=True)
class MusicAoaConfig:
    """Configuration of the antenna-only MUSIC estimator.

    Attributes
    ----------
    aoa_grid_deg:
        (min, max, step) AoA search grid.
    eigenvalue_threshold_ratio:
        Noise-subspace threshold, as in the joint estimator.
    forward_backward:
        Apply forward-backward covariance averaging.
    spatial_smoothing_subarray:
        Antenna-subarray size for spatial smoothing (0 disables; 2 is the
        only useful value for M = 3).
    max_peaks:
        Maximum AoA peaks returned.
    """

    aoa_grid_deg: Tuple[float, float, float] = (-90.0, 90.0, 1.0)
    eigenvalue_threshold_ratio: float = 0.03
    forward_backward: bool = True
    spatial_smoothing_subarray: int = 0
    max_peaks: int = 2
    min_rel_height_db: float = 20.0

    def aoa_grid(self) -> np.ndarray:
        lo, hi, step = self.aoa_grid_deg
        return grid_range(lo, hi + step / 2, step)


@dataclass
class MusicAoaEstimator:
    """MUSIC over the antenna dimension only.

    Attributes
    ----------
    model:
        Steering model of the physical array (num_subcarriers is unused by
        the antenna-domain spectrum but kept for shape validation).
    config:
        Estimator options.
    sanitize:
        Apply Algorithm 1 first.  Irrelevant for pure-AoA MUSIC in theory
        (the STO ramp is antenna-invariant and cancels in the covariance),
        but kept for exact parity with the SpotFi pipeline's input.
    """

    model: SteeringModel
    config: MusicAoaConfig = field(default_factory=MusicAoaConfig)
    sanitize: bool = False

    def estimate_stack(
        self, csi: Sequence[np.ndarray]
    ) -> List[Union[List[SpectrumPeak], EstimationError]]:
        """AoA peaks per packet, strongest first, or the packet's error."""
        spectra, grid = self.spectra(csi)
        return [
            s if isinstance(s, EstimationError) else self._peaks(s, grid)
            for s in spectra
        ]

    def estimate_packet(self, csi: np.ndarray) -> List[SpectrumPeak]:
        """AoA peaks for one packet, strongest first."""
        spectrum, grid = self.spectrum(csi)
        return self._peaks(spectrum, grid)

    def spectrum(self, csi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(1-D pseudospectrum, AoA grid) for one packet: :meth:`spectra` of one."""
        (spectrum,), grid = self.spectra([csi])
        if isinstance(spectrum, EstimationError):
            raise spectrum
        return spectrum, grid

    def spectra(
        self, csi: Sequence[np.ndarray]
    ) -> Tuple[List[Union[np.ndarray, EstimationError]], np.ndarray]:
        """Per packet its 1-D pseudospectrum or its error, and the AoA grid.

        The CSI front end, the optional spatial smoothing and the
        covariances run over the whole packet stack
        (:func:`~repro.core.estimator.prepare_csi_stack`,
        :func:`~repro.core.music.covariances`); the eigen-split and the
        spectrum run per packet.  A packet that fails the front end or
        has a degenerate covariance gets its :class:`EstimationError`.
        """
        stack, errors = prepare_csi_stack(csi, self.model, self.sanitize)
        x, m = stack, self.model.num_antennas
        sub = self.config.spatial_smoothing_subarray
        if sub:
            if not 2 <= sub <= m:
                raise ConfigurationError(
                    f"spatial smoothing subarray must be in [2, {m}], got {sub}"
                )
            # Every sub-antenna block x[k, i : i + sub], side by side as snapshots.
            windows = np.lib.stride_tricks.sliding_window_view(x, sub, axis=1)
            x = windows.transpose(0, 3, 1, 2).reshape(len(x), sub, -1)
            m = sub
        # max_paths = m leaves the rank cap at m - 1: one noise dimension.
        subspace = MusicConfig(
            eigenvalue_threshold_ratio=self.config.eigenvalue_threshold_ratio,
            max_paths=m,
            forward_backward=self.config.forward_backward,
        )
        grid = self.config.aoa_grid()
        steering = self.model.subarray_model(m, 1).antenna_vector(grid)  # (A, M')
        spectra: List[Union[np.ndarray, EstimationError, None]] = list(errors)
        live = [k for k, error in enumerate(errors) if error is None]
        for k, cov in zip(live, covariances(x)):
            try:
                _, e_noise, _ = subspaces(cov, subspace)
            except EstimationError as exc:
                spectra[k] = exc
                continue
            proj = steering.conj() @ e_noise  # (A, K)
            denom = np.maximum(np.sum(np.abs(proj) ** 2, axis=1) / m, 1e-18)
            spectra[k] = 1.0 / denom
        return spectra, grid  # type: ignore[return-value]

    def _peaks(self, spectrum: np.ndarray, grid: np.ndarray) -> List[SpectrumPeak]:
        # Interior local maxima only (the border rule of the 2-D finder).
        idx = interior_maxima(spectrum)
        if idx.size == 0:
            # Monotone spectrum: fall back to the global maximum.
            best = int(np.argmax(spectrum))
            return [SpectrumPeak(float(grid[best]), 0.0, float(spectrum[best]))]
        order = idx[np.argsort(spectrum[idx])[::-1]]
        strongest = spectrum[order[0]]
        floor = strongest * 10.0 ** (-self.config.min_rel_height_db / 10.0)
        peaks = []
        for i in order[: self.config.max_peaks]:
            if spectrum[i] < floor:
                break
            peaks.append(SpectrumPeak(float(grid[i]), 0.0, float(spectrum[i])))
        return peaks

    # ------------------------------------------------------------------
    def estimate_trace_best(self, trace: CsiTrace) -> List[float]:
        """Strongest-peak AoA per packet over a trace."""
        return [peaks[0].aoa_deg for peaks in self._trace_peaks(trace) if peaks]

    def estimate_trace_all(self, trace: CsiTrace) -> List[float]:
        """Every peak AoA over all packets of a trace."""
        return [p.aoa_deg for peaks in self._trace_peaks(trace) for p in peaks]

    def _trace_peaks(self, trace: CsiTrace) -> List[List[SpectrumPeak]]:
        """Every packet's peaks; raises the first failed packet's error."""
        peaks: List[List[SpectrumPeak]] = []
        for outcome in self.estimate_stack([frame.csi for frame in trace]):
            if isinstance(outcome, EstimationError):
                raise outcome
            peaks.append(outcome)
        return peaks
