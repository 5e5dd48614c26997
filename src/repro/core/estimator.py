"""Per-packet joint (AoA, ToF) estimation — Alg. 2 lines 3-7 for one packet.

:class:`JointEstimator` chains sanitization (Algorithm 1), CSI smoothing
(Fig. 4), MUSIC (lines 5-6), and peak extraction (line 7), producing the
:class:`PathEstimate` points that the clustering stage consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, List, Optional, Tuple, Union

import numpy as np

from repro.core.music import (
    MusicConfig,
    covariance,
    music_spectrum,
    music_spectrum_from_signal,
    subspaces,
)
from repro.core.peaks import SpectrumPeak, find_peaks_2d, merge_close_peaks
from repro.core.sanitize import sanitize_csi
from repro.core.smoothing import SmoothingConfig, smooth_csi, smooth_csi_batch
from repro.core.steering import SteeringModel
from repro.errors import EstimationError
from repro.analysis.contracts import contract
from repro.runtime.cache import default_steering_cache
from repro.wifi.arrays import UniformLinearArray
from repro.wifi.csi import CsiTrace, validate_csi_matrix
from repro.wifi.ofdm import OfdmGrid

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.runtime.executor import Executor


@dataclass(frozen=True)
class PathEstimate:
    """One estimated multipath component from one packet.

    Attributes
    ----------
    aoa_deg:
        Estimated angle of arrival (deg from array normal).
    tof_s:
        Estimated *relative* time of flight (s); STO-sanitized, so only
        differences between paths are meaningful.
    power:
        MUSIC pseudospectrum height at the peak.
    packet_index:
        Which packet of the trace this estimate came from.
    """

    aoa_deg: float
    tof_s: float
    power: float
    packet_index: int = 0


@dataclass
class JointEstimator:
    """SpotFi's super-resolution joint (AoA, ToF) estimator.

    Attributes
    ----------
    model:
        Steering model of the *full* array (e.g. 3 antennas x 30
        subcarriers for the Intel 5300).
    smoothing:
        Subarray configuration for the smoothed CSI matrix.
    music:
        MUSIC subspace and grid configuration.
    sanitize:
        Apply Algorithm 1 before smoothing (the paper always does; the
        flag exists for the ablation benchmark).
    max_peaks:
        Maximum multipath components returned per packet.
    min_rel_height_db:
        Peak acceptance threshold below the strongest peak.
    """

    model: SteeringModel
    smoothing: SmoothingConfig = field(default_factory=SmoothingConfig)
    music: MusicConfig = field(default_factory=MusicConfig)
    sanitize: bool = True
    max_peaks: int = 6
    min_rel_height_db: float = 20.0

    def __post_init__(self) -> None:
        # The steering model used against the smoothed matrix spans the
        # subarray, not the full array.
        self._sub_model = self.model.subarray_model(
            self.smoothing.sub_antennas, self.smoothing.sub_subcarriers
        )

    @property
    def subarray_model(self) -> SteeringModel:
        """Steering model of the smoothed subarray MUSIC runs on."""
        return self._sub_model

    # ------------------------------------------------------------------
    # Single packet
    # ------------------------------------------------------------------
    def estimate_packet(
        self, csi: np.ndarray, packet_index: int = 0
    ) -> List[PathEstimate]:
        """Estimate the (AoA, ToF) of every resolvable path in one packet.

        Returns estimates sorted by descending spectrum power.  Raises
        :class:`EstimationError` only for structurally invalid input; a
        packet whose spectrum has no acceptable peaks yields an empty list.
        """
        spectrum, aoa_grid, tof_grid = self.spectrum(csi)
        return self.stage_peaks(spectrum, aoa_grid, tof_grid, packet_index)

    def spectrum(
        self, csi: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (spectrum, aoa_grid, tof_grid) for one packet's CSI.

        Exposed separately so diagnostics/benchmarks can inspect the full
        pseudospectrum, not just its peaks.
        """
        return self.stage_music(self.stage_smooth(self.stage_sanitize(csi)))

    # ------------------------------------------------------------------
    # Pipeline stages (Alg. 2 lines 3-7, individually addressable)
    # ------------------------------------------------------------------
    # ``estimate_packet`` is their composition; the traced pipeline path
    # (repro.core.pipeline with a real repro.obs tracer) drives them one
    # at a time so each stage gets its own span.

    @contract(csi="(M,N)", returns="(M,N) complex128")
    def stage_sanitize(self, csi: np.ndarray) -> np.ndarray:
        """Validate one packet's CSI and apply Algorithm 1 (if enabled)."""
        csi = validate_csi_matrix(csi)
        if csi.shape != (self.model.num_antennas, self.model.num_subcarriers):
            raise EstimationError(
                f"CSI shape {csi.shape} does not match the steering model "
                f"({self.model.num_antennas}, {self.model.num_subcarriers})"
            )
        if self.sanitize:
            csi = sanitize_csi(csi)
        return csi

    @contract(csi="(M,N)", returns="(S,C) complex128")
    def stage_smooth(self, csi: np.ndarray) -> np.ndarray:
        """Fig. 4 smoothing of sanitized CSI into the subarray matrix."""
        return smooth_csi(csi, self.smoothing)

    def stage_music(
        self, x: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """MUSIC over a smoothed matrix -> (spectrum, aoa_grid, tof_grid)."""
        e_signal, e_noise, _ = subspaces(
            covariance(x), self.music, num_snapshots=x.shape[1]
        )
        grids = default_steering_cache().grids_for(self._sub_model, self.music)
        if e_signal.shape[1] <= e_noise.shape[1]:
            spectrum = music_spectrum_from_signal(
                e_signal,
                self._sub_model,
                grids.aoa_grid_deg,
                grids.tof_grid_s,
                phi=grids.phi,
                omega=grids.omega,
            )
        else:
            spectrum = music_spectrum(
                e_noise,
                self._sub_model,
                grids.aoa_grid_deg,
                grids.tof_grid_s,
                phi=grids.phi,
                omega=grids.omega,
            )
        return spectrum, grids.aoa_grid_deg, grids.tof_grid_s

    def stage_peaks(
        self,
        spectrum: np.ndarray,
        aoa_grid: np.ndarray,
        tof_grid: np.ndarray,
        packet_index: int = 0,
    ) -> List[PathEstimate]:
        """Peak extraction (line 7): spectrum -> sorted path estimates."""
        peaks = find_peaks_2d(
            spectrum,
            aoa_grid,
            tof_grid,
            max_peaks=self.max_peaks * 2,
            min_rel_height_db=self.min_rel_height_db,
        )
        peaks = merge_close_peaks(peaks)[: self.max_peaks]
        return [
            PathEstimate(
                aoa_deg=p.aoa_deg,
                tof_s=p.tof_s,
                power=p.power,
                packet_index=packet_index,
            )
            for p in peaks
        ]

    # ------------------------------------------------------------------
    # Traces
    # ------------------------------------------------------------------
    def estimate_trace(
        self, trace: CsiTrace, executor: Optional["Executor"] = None
    ) -> List[PathEstimate]:
        """Estimates pooled over every packet of a trace (Alg. 2 lines 2-8).

        ``executor`` (a :class:`repro.runtime.executor.Executor`) fans the
        per-packet MUSIC calls across workers with deterministic result
        ordering; None keeps the historical inline loop.  Per-packet
        estimation is pure, so every executor returns identical values.
        """
        if executor is None:
            estimates: List[PathEstimate] = []
            for index, frame in enumerate(trace):
                estimates.extend(self.estimate_packet(frame.csi, packet_index=index))
            return estimates
        tasks = [(self, frame.csi, index) for index, frame in enumerate(trace)]
        # CSI is pickled once per task until the ROADMAP item 2 shared-memory
        # path lands; acceptable at trace sizes, tracked by BENCH_dist.json.
        per_packet = executor.map_ordered(  # repro: noqa REP013
            estimate_packet_task, tasks, stage="estimate"
        )
        return [estimate for packet in per_packet for estimate in packet]

    def estimate_burst(self, trace: CsiTrace) -> List[PathEstimate]:
        """One MUSIC pass over a whole burst (pooled-covariance variant).

        Instead of the paper's per-packet spectra + clustering, this
        concatenates every packet's smoothed matrix column-wise and runs
        MUSIC once on the pooled covariance.  Caveat (measured in
        ``bench_pooled.py``): Algorithm 1's per-packet slope fit leaves
        small noise-driven ToF offsets *between* packets, so pooling
        smears the ToF axis and per-packet estimation + clustering is
        actually more accurate — which is precisely why the paper
        aggregates after estimation, not before.  This method exists for
        that comparison and for callers whose CSI shares one sampling
        reference (e.g. synchronized captures).
        """
        if len(trace) == 0:
            raise EstimationError("cannot estimate an empty trace")
        frames = trace.csi_array()
        if frames.shape[1:] != (self.model.num_antennas, self.model.num_subcarriers):
            raise EstimationError(
                f"trace CSI shape {frames.shape[1:]} does not match the "
                f"steering model ({self.model.num_antennas}, "
                f"{self.model.num_subcarriers})"
            )
        if self.sanitize:
            frames = np.stack([sanitize_csi(f) for f in frames])
        x = smooth_csi_batch(frames, self.smoothing)
        return self.stage_peaks(*self.stage_music(x))

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def for_intel5300(
        array: UniformLinearArray,
        grid: OfdmGrid,
        smoothing: Optional[SmoothingConfig] = None,
        music: Optional[MusicConfig] = None,
        **kwargs: object,
    ) -> "JointEstimator":
        """Estimator for an Intel 5300-style (M x 30) CSI report."""
        model = SteeringModel.for_grid(
            grid,
            num_antennas=array.num_antennas,
            antenna_spacing_m=array.spacing_m,
        )
        return JointEstimator(
            model=model,
            smoothing=smoothing or SmoothingConfig(),
            music=music or MusicConfig(),
            **kwargs,
        )


def estimate_packet_task(
    task: Tuple["JointEstimator", np.ndarray, int]
) -> List[PathEstimate]:
    """Executor task: one packet through one estimator.

    ``task`` is ``(estimator, csi, packet_index)``.  Module-level so a
    :class:`~repro.runtime.executor.ParallelExecutor` can pickle it into
    worker processes; exceptions propagate (matching the inline loop).
    """
    estimator, csi, packet_index = task
    return estimator.estimate_packet(csi, packet_index=packet_index)


def estimate_packet_safe(
    task: Tuple["JointEstimator", np.ndarray, int]
) -> Union[List[PathEstimate], EstimationError]:
    """Executor task that converts per-packet estimation failures to values.

    Used by the batched multi-AP fan-out in
    :meth:`repro.core.pipeline.SpotFi.locate`, where one AP's
    :class:`EstimationError` must mark only that AP unusable instead of
    aborting the whole batch.  Structural errors (e.g.
    :class:`~repro.errors.CsiShapeError`) still raise, exactly like the
    serial path.
    """
    try:
        return estimate_packet_task(task)
    except EstimationError as exc:
        return exc


@contract(returns="(K,4) float64")
def estimates_as_array(estimates: List[PathEstimate]) -> np.ndarray:
    """(K, 4) float array of [aoa_deg, tof_s, power, packet_index] rows."""
    if not estimates:
        return np.zeros((0, 4), dtype=float)
    return np.array(
        [[e.aoa_deg, e.tof_s, e.power, e.packet_index] for e in estimates],
        dtype=float,
    )
