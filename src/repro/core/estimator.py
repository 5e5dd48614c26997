"""Joint (AoA, ToF) estimation — Alg. 2 lines 3-7 for each packet of an AP.

:func:`prepare_csi_stack` is the front end every per-packet estimator
shares: CSI validation, the shape check against the steering model, and
sanitization (Algorithm 1), over all of an AP's packets at once.
:class:`SubspaceEstimator` holds what the smoothed-CSI estimators have in
common, and :class:`JointEstimator` chains that front end, CSI smoothing
(Fig. 4), MUSIC (lines 5-6) and peak extraction (line 7) into one kernel
over the AP's ``(K, M, N)`` packet stack, producing the
:class:`PathEstimate` points that the clustering stage consumes.  Each
packet's estimates are exactly those of the packet alone: every
per-packet entry point (``estimate_packet``, the ``stage_*`` methods,
:func:`prepare_csi`) is the kernel's K = 1 call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.music import (
    MusicConfig,
    covariances,
    eigen_splits,
    subspace_energy,
    subspace_spectrum,
)
from repro.core.peaks import (
    PeakCandidates,
    merge_close_peaks,
    peak_candidates,
    select_peaks,
)
from repro.core.sanitize import sanitize_csi_stack
from repro.core.smoothing import (
    SmoothingConfig,
    smooth_csi,
    smooth_csi_batch,
    smooth_csi_stack,
)
from repro.core.steering import SteeringModel
from repro.errors import ConfigurationError, EstimationError
from repro.analysis.contracts import contract
from repro.obs.artifacts import downsample_spectrum
from repro.obs.trace import NOOP_TRACER, SpanHandle, Tracer
from repro.runtime.cache import default_steering_cache
from repro.wifi.arrays import UniformLinearArray
from repro.wifi.csi import CsiTrace, validate_csi_matrix
from repro.wifi.ofdm import OfdmGrid


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


#: One packet's result from a stacked kernel: its path estimates, or the
#: :class:`EstimationError` that stopped it.
PacketOutcome = Union[List[PathEstimate], EstimationError]


def _first_error(outcomes: Sequence[object]) -> Optional[EstimationError]:
    return next((o for o in outcomes if isinstance(o, EstimationError)), None)


def prepare_csi_stack(
    csi: Sequence[np.ndarray], model: SteeringModel, sanitize: bool = True
) -> Tuple[np.ndarray, List[Optional[EstimationError]]]:
    """The shared front end (Alg. 2 lines 3-4) over one AP's packets.

    Validates every packet's CSI (a structurally invalid matrix raises
    :class:`~repro.errors.CsiShapeError`), rejects a shape that differs
    from the steering model's ``(num_antennas, num_subcarriers)`` with a
    per-packet :class:`EstimationError`, and applies Algorithm 1 to the
    rest in one stacked pass when ``sanitize`` is set.  Returns the
    ``(K', M, N)`` stack of the packets that passed, in order, and one
    entry per input packet: its error, or None if it is in the stack.
    """
    shape = (model.num_antennas, model.num_subcarriers)
    passed: List[np.ndarray] = []
    errors: List[Optional[EstimationError]] = []
    for matrix in csi:
        matrix = validate_csi_matrix(matrix)
        if matrix.shape == shape:
            passed.append(matrix)
            errors.append(None)
        else:
            errors.append(
                EstimationError(
                    f"CSI shape {matrix.shape} does not match the steering "
                    f"model {shape}"
                )
            )
    stack = np.stack(passed) if passed else np.zeros((0,) + shape, dtype=np.complex128)
    if sanitize:
        stack = sanitize_csi_stack(stack)
    return stack, errors


def prepare_csi_all(
    csi: Sequence[np.ndarray], model: SteeringModel, sanitize: bool = True
) -> np.ndarray:
    """:func:`prepare_csi_stack` for callers that need every packet.

    Raises the first failed packet's :class:`EstimationError` instead of
    returning it, so the stack holds all ``K`` packets.
    """
    stack, errors = prepare_csi_stack(csi, model, sanitize)
    error = _first_error(errors)
    if error is not None:
        raise error
    return stack


@contract(csi="(M,N)", returns="(M,N) complex128")
def prepare_csi(
    csi: np.ndarray, model: SteeringModel, sanitize: bool = True
) -> np.ndarray:
    """The shared per-packet front end: :func:`prepare_csi_all` of one."""
    return prepare_csi_all([csi], model, sanitize)[0]


@dataclass
class SubspaceEstimator:
    """Per-packet estimator on the smoothed CSI matrix: the shared base.

    Holds what 2-D MUSIC (:class:`JointEstimator`) and ESPRIT
    (:class:`~repro.core.esprit.EspritEstimator`) have in common: the
    stacked front end and eigen-split, the subarray steering model and
    the trace call.  Subclasses implement :meth:`estimate_stack`, the one
    kernel over an AP's ``(K, M, N)`` packet stack; every per-packet
    method is its K = 1 call.

    Attributes
    ----------
    model:
        Steering model of the *full* array (e.g. 3 antennas x 30
        subcarriers for the Intel 5300).
    smoothing:
        Subarray configuration for the smoothed CSI matrix.
    music:
        Subspace parameters (eigenvalue threshold or MDL, max_paths,
        forward_backward) and, for MUSIC, the search grids.
    sanitize:
        Apply Algorithm 1 before smoothing (the paper always does; the
        flag exists for the ablation benchmark).
    """

    model: SteeringModel
    smoothing: SmoothingConfig = field(default_factory=SmoothingConfig)
    music: MusicConfig = field(default_factory=MusicConfig)
    sanitize: bool = True

    def __post_init__(self) -> None:
        # The steering model used against the smoothed matrix spans the
        # subarray, not the full array.
        self._sub_model = self.model.subarray_model(
            self.smoothing.sub_antennas, self.smoothing.sub_subcarriers
        )

    @property
    def subarray_model(self) -> SteeringModel:
        """Steering model of the smoothed subarray the estimator runs on."""
        return self._sub_model

    def estimate_stack(
        self,
        csi: Sequence[np.ndarray],
        first_index: int = 0,
        tracer: Tracer = NOOP_TRACER,
    ) -> List[PacketOutcome]:
        """Alg. 2 lines 3-7 for every packet of one AP in one pass.

        ``csi`` holds the AP's packets in order; packet ``k``'s estimates
        carry ``packet_index = first_index + k``.  Returns one
        :data:`PacketOutcome` per packet, so a failed packet costs only
        itself; a structurally invalid CSI matrix raises.  ``tracer``
        receives the stage spans.
        """
        raise NotImplementedError

    def estimate_packet(
        self, csi: np.ndarray, packet_index: int = 0
    ) -> List[PathEstimate]:
        """(AoA, ToF) estimates for one packet, strongest first.

        The K = 1 call of :meth:`estimate_stack`; raises the packet's
        :class:`EstimationError`.
        """
        (outcome,) = self.estimate_stack([csi], first_index=packet_index)
        if isinstance(outcome, EstimationError):
            raise outcome
        return outcome

    @contract(csi="(M,N)", returns="(M,N) complex128")
    def stage_sanitize(self, csi: np.ndarray) -> np.ndarray:
        """Validate one packet's CSI and apply Algorithm 1 (if enabled)."""
        return prepare_csi(csi, self.model, self.sanitize)

    def estimate_trace(self, trace: CsiTrace) -> List[PathEstimate]:
        """Estimates pooled over every packet of a trace (Alg. 2 lines 2-8).

        Raises the first failed packet's :class:`EstimationError`.
        """
        estimates: List[PathEstimate] = []
        for outcome in self.estimate_stack([frame.csi for frame in trace]):
            if isinstance(outcome, EstimationError):
                raise outcome
            estimates.extend(outcome)
        return estimates

    def _eigen_split(
        self, x: np.ndarray
    ) -> List[Union[Tuple[np.ndarray, np.ndarray], EstimationError]]:
        """Lines 5-6 up to the subspaces: ``(E_S, E_N)`` per smoothed matrix.

        The covariances come from one batched matmul and
        :func:`~repro.core.music.eigen_splits` splits them as one stack;
        a degenerate covariance fails only its own packet.
        """
        return [
            split
            if isinstance(split, EstimationError)
            else (split[0][:, : split[1]], split[0][:, split[1] :])
            for split in eigen_splits(covariances(x), self.music, x.shape[2])
        ]

    @staticmethod
    def _mark_failed(span: SpanHandle, outcomes: Sequence[object]) -> None:
        """Flag a stage span as failed when any packet's outcome is an error."""
        error = _first_error(outcomes)
        if error is not None:
            span.fail(type(error).__name__)


@dataclass
class JointEstimator(SubspaceEstimator):
    """SpotFi's super-resolution joint (AoA, ToF) estimator: 2-D MUSIC.

    Attributes
    ----------
    max_peaks:
        Maximum multipath components returned per packet.
    min_rel_height_db:
        Peak acceptance threshold below the strongest peak.

    The other fields are :class:`SubspaceEstimator`'s.
    """

    max_peaks: int = 6
    min_rel_height_db: float = 20.0

    def __post_init__(self) -> None:
        if self.max_peaks < 1:
            raise ConfigurationError(f"max_peaks must be >= 1, got {self.max_peaks}")
        if not self.min_rel_height_db >= 0:
            raise ConfigurationError(
                f"min_rel_height_db must be >= 0, got {self.min_rel_height_db}"
            )
        super().__post_init__()

    # ------------------------------------------------------------------
    # The kernel
    # ------------------------------------------------------------------
    def estimate_stack(
        self,
        csi: Sequence[np.ndarray],
        first_index: int = 0,
        tracer: Tracer = NOOP_TRACER,
    ) -> List[PacketOutcome]:
        """Alg. 2 lines 3-7 for every packet of one AP in one pass.

        Sanitize and smooth run over the whole stack, the covariances as
        one batched matmul; ``eigh`` and the projector energy run per
        packet, and each packet's energy is reduced to its peak
        candidates before the next is computed, mapping to spectrum
        values only the cells the search gathers.  One stacked select
        then picks every packet's peaks.
        Stages run under ``sanitize``, ``smooth`` and ``music`` spans; a
        stage where a packet failed ends with status ``error``.  With
        ``capture_artifacts`` the ``music`` span also carries the
        downsampled mean pseudospectrum.  Each packet's estimates equal
        :meth:`estimate_packet` of that packet alone.
        """
        with tracer.span("sanitize", packets=len(csi)) as span:
            stack, errors = prepare_csi_stack(csi, self.model, self.sanitize)
            self._mark_failed(span, errors)
        with tracer.span("smooth"):
            x = smooth_csi_stack(stack, self.smoothing)
        outcomes: List[Optional[PacketOutcome]] = list(errors)
        live = [k for k, error in enumerate(errors) if error is None]
        with tracer.span("music", packets=len(live)) as span:
            grids = default_steering_cache().grids_for(self._sub_model, self.music)
            capture = span.recording and tracer.config.capture_artifacts
            total: Optional[np.ndarray] = None
            candidates: List[PeakCandidates] = []
            searched: List[int] = []
            splits = self._eigen_split(x)
            for k, split in zip(live, splits):
                if isinstance(split, EstimationError):
                    outcomes[k] = split
                    continue
                energy, to_spectrum = subspace_energy(*split, self._sub_model, grids)
                candidates.append(
                    peak_candidates(
                        energy,
                        grids.aoa_grid_deg,
                        grids.tof_grid_s,
                        min_rel_height_db=self.min_rel_height_db,
                        to_spectrum=to_spectrum,
                    )
                )
                searched.append(k)
                if capture:
                    spectrum = to_spectrum(energy, out=energy)
                    total = spectrum if total is None else total + spectrum
            found = self._select(
                candidates,
                grids.aoa_grid_deg,
                grids.tof_grid_s,
                [first_index + k for k in searched],
            )
            for k, estimates in zip(searched, found):
                outcomes[k] = estimates
            self._mark_failed(span, splits)
            span.set("estimates", sum(len(e) for e in found))
            if total is not None:
                span.set(
                    "pseudospectrum",
                    downsample_spectrum(
                        total / len(searched),
                        grids.aoa_grid_deg,
                        grids.tof_grid_s,
                        tracer.config.artifact_max_bins,
                    ),
                )
        return outcomes  # type: ignore[return-value]

    def _select(
        self,
        candidates: Sequence[PeakCandidates],
        aoa_grid: np.ndarray,
        tof_grid: np.ndarray,
        packet_indices: Sequence[int],
    ) -> List[List[PathEstimate]]:
        """Line 7's stacked half: each packet's merged, capped estimates."""
        peaks = select_peaks(
            candidates,
            aoa_grid,
            tof_grid,
            max_peaks=self.max_peaks * 2,
            min_rel_height_db=self.min_rel_height_db,
        )
        return [
            [
                PathEstimate(
                    aoa_deg=p.aoa_deg, tof_s=p.tof_s, power=p.power, packet_index=i
                )
                for p in merge_close_peaks(found)[: self.max_peaks]
            ]
            for i, found in zip(packet_indices, peaks)
        ]

    # ------------------------------------------------------------------
    # Single packet
    # ------------------------------------------------------------------
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
    # Each is the K = 1 case of the matching step of ``estimate_stack``,
    # for callers that inspect one packet's intermediate results.

    @contract(csi="(M,N)", returns="(S,C) complex128")
    def stage_smooth(self, csi: np.ndarray) -> np.ndarray:
        """Fig. 4 smoothing of sanitized CSI into the subarray matrix."""
        return smooth_csi(csi, self.smoothing)

    def stage_music(
        self, x: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """MUSIC over a smoothed matrix -> (spectrum, aoa_grid, tof_grid)."""
        x = np.asarray(x, dtype=np.complex128)
        if x.ndim != 2:
            raise EstimationError(
                f"measurement matrix must be 2-D, got shape {x.shape}"
            )
        (split,) = self._eigen_split(x[None])
        if isinstance(split, EstimationError):
            raise split
        grids = default_steering_cache().grids_for(self._sub_model, self.music)
        spectrum = subspace_spectrum(*split, self._sub_model, grids)
        return spectrum, grids.aoa_grid_deg, grids.tof_grid_s

    def stage_peaks(
        self,
        spectrum: np.ndarray,
        aoa_grid: np.ndarray,
        tof_grid: np.ndarray,
        packet_index: int = 0,
    ) -> List[PathEstimate]:
        """Peak extraction (line 7): spectrum -> sorted path estimates."""
        candidates = peak_candidates(
            spectrum, aoa_grid, tof_grid, min_rel_height_db=self.min_rel_height_db
        )
        return self._select([candidates], aoa_grid, tof_grid, [packet_index])[0]

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
        reference (e.g. synchronized captures).  Uses the same stacked
        front end as :meth:`estimate_stack`; the first failed packet's
        :class:`EstimationError` is raised.
        """
        if len(trace) == 0:
            raise EstimationError("cannot estimate an empty trace")
        csi = [frame.csi for frame in trace]
        stack = prepare_csi_all(csi, self.model, self.sanitize)
        x = smooth_csi_batch(stack, self.smoothing)
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


def estimate_ap_packets(
    task: Tuple[SubspaceEstimator, Sequence[np.ndarray]]
) -> List[PacketOutcome]:
    """Executor task: every packet of one AP through the stacked kernel.

    ``task`` is ``(estimator, csi)`` with ``csi`` the AP's packets in
    order.  Module-level so a
    :class:`~repro.runtime.executor.ParallelExecutor` can pickle it into
    worker processes.  :meth:`repro.core.pipeline.SpotFi.process_aps`
    maps it over every AP in one batch.  Each packet's result is its
    estimates or its :class:`EstimationError`, so a failure marks only
    its own AP unusable; structural errors (e.g.
    :class:`~repro.errors.CsiShapeError`) still raise and abort the map.
    """
    estimator, csi = task
    return estimator.estimate_stack(csi)


@contract(returns="(K,4) float64")
def estimates_as_array(estimates: List[PathEstimate]) -> np.ndarray:
    """(K, 4) float array of [aoa_deg, tof_s, power, packet_index] rows."""
    if not estimates:
        return np.zeros((0, 4), dtype=float)
    return np.array(
        [[e.aoa_deg, e.tof_s, e.power, e.packet_index] for e in estimates],
        dtype=float,
    )
