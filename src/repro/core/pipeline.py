"""SpotFi end-to-end — paper Algorithm 2.

:class:`SpotFi` wires the whole system together: for every AP, sanitize
(Alg. 1) + smooth (Fig. 4) + MUSIC (lines 5-6) + peaks (line 7) per packet,
cluster across packets (line 9), select the direct path by Eq. 8 likelihood
(line 10), then fuse all APs' (AoA, likelihood, RSSI) with the Eq. 9
solver (line 12).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.clustering import PathCluster, cluster_estimates
from repro.core.direct_path import DirectPathEstimate, select_direct_path
from repro.core.estimator import (
    JointEstimator,
    PathEstimate,
    estimate_packet_safe,
)
from repro.core.likelihood import DEFAULT_WEIGHTS, LikelihoodWeights
from repro.core.localization import ApObservation, LocalizationResult, Localizer
from repro.core.music import MusicConfig
from repro.core.smoothing import SmoothingConfig
from repro.core.steering import SteeringModel
from repro.errors import (
    ClusteringError,
    ConfigurationError,
    EstimationError,
    LocalizationError,
    ReproError,
)
from repro.geom.points import Point, PointLike
from repro.obs import NOOP_TRACER, Tracer, cluster_summary, downsample_spectrum
from repro.runtime.executor import Executor, SerialExecutor
from repro.wifi.arrays import UniformLinearArray
from repro.wifi.csi import CsiTrace
from repro.wifi.ofdm import OfdmGrid


@dataclass
class SpotFiConfig:
    """Every tunable of the SpotFi pipeline, with the paper's defaults.

    Attributes
    ----------
    smoothing:
        Fig. 4 subarray configuration (2 x 15 for the Intel 5300).
    music:
        MUSIC grids and subspace threshold.
    likelihood:
        Eq. 8 weights.
    estimation:
        Per-packet estimator: "music" (the paper's spectral search) or
        "esprit" (grid-free shift invariance, see `repro.core.esprit`).
    num_clusters:
        Gaussian-mixture size (paper: 5).
    clustering_method:
        "gmm" (paper) or "kmeans".
    packets_per_fix:
        Packets used per location fix (paper shows 10 suffice, Fig. 9(b);
        evaluation groups use 40, Sec. 4.3.1).
    sanitize:
        Apply Algorithm 1 (ablation switch).
    min_cluster_size:
        Absolute floor on cluster membership; smaller clusters are
        discarded as spurious.
    min_cluster_fraction:
        Additional floor as a fraction of the packets used: a real path
        produces roughly one estimate per packet, so a cluster seen in
        under ~15% of packets is a spectrum artifact.  Artifacts recur
        with tiny variance and can otherwise steal the smallest-ToF bonus
        of Eq. 8.
    aoa_weight, rssi_weight:
        Eq. 9 term weights (deg^2 and dB^2 scales).
    grid_step_m:
        Coarse localization grid resolution.
    use_likelihood_weights:
        Weight APs by l_i in Eq. 9 (ablation switch).
    min_aps:
        Usable-AP quorum for a fix.  A degraded AP (estimation or
        clustering failure, blackout, deadline miss) is dropped and the
        Eq. 9 solve proceeds on the survivors — whose likelihood weights
        the solver renormalizes to mean 1, redistributing the lost AP's
        influence — as long as at least this many remain (floor 2; one
        AoA does not intersect).
    """

    smoothing: SmoothingConfig = field(default_factory=SmoothingConfig)
    music: MusicConfig = field(default_factory=MusicConfig)
    likelihood: LikelihoodWeights = DEFAULT_WEIGHTS
    estimation: str = "music"
    num_clusters: int = 5
    clustering_method: str = "gmm"
    packets_per_fix: int = 40
    sanitize: bool = True
    min_cluster_size: int = 2
    min_cluster_fraction: float = 0.15
    aoa_weight: float = 1.0
    rssi_weight: float = 1.0
    grid_step_m: float = 0.25
    use_likelihood_weights: bool = True
    min_aps: int = 2

    def __post_init__(self) -> None:
        if self.packets_per_fix < 1:
            raise ConfigurationError("packets_per_fix must be >= 1")


@dataclass(frozen=True)
class ApReport:
    """Everything SpotFi derived from one AP's trace.

    Attributes
    ----------
    array:
        The AP's antenna array.
    direct:
        Direct-path selection outcome (None if estimation failed).
    rssi_dbm:
        Median RSSI of the packets used.
    estimates:
        All per-packet (AoA, ToF) estimates.
    clusters:
        The clusters the estimates formed.
    failure:
        Why the AP degraded (``"ErrorType: detail"``) when ``direct`` is
        None; None for a usable AP.
    """

    array: UniformLinearArray
    direct: Optional[DirectPathEstimate]
    rssi_dbm: float
    estimates: Tuple[PathEstimate, ...] = ()
    clusters: Tuple[PathCluster, ...] = ()
    failure: Optional[str] = None

    @property
    def usable(self) -> bool:
        return self.direct is not None


def _failure_text(exc: BaseException) -> str:
    """One-line ``"ErrorType: detail"`` diagnostic for a degraded AP."""
    return f"{type(exc).__name__}: {exc}"


@dataclass(frozen=True)
class SpotFiFix:
    """One localization fix: the result plus per-AP diagnostics.

    ``estimator`` names the registered estimator that produced the fix
    (empty only for fixes built outside :meth:`SpotFi.locate`).
    """

    result: LocalizationResult
    reports: Tuple[ApReport, ...]
    estimator: str = ""

    @property
    def position(self) -> Point:
        return self.result.position

    @property
    def degraded(self) -> bool:
        """True when any contributing AP failed and the fix used a quorum."""
        return any(not r.usable for r in self.reports)

    @property
    def degraded_aps(self) -> Tuple[int, ...]:
        """Indices (into ``reports``) of the APs that degraded."""
        return tuple(i for i, r in enumerate(self.reports) if not r.usable)

    def error_to(self, truth: PointLike) -> float:
        return self.result.error_to(truth)


class SpotFi:
    """The SpotFi server: Algorithm 2 over (AP trace) collections.

    Parameters
    ----------
    grid:
        OFDM grid the CSI was measured on (``Intel5300().grid()``).
    bounds:
        (x0, y0, x1, y1) localization search region, e.g. the floorplan
        bounding box.
    config:
        Pipeline tunables; defaults reproduce the paper.
    rng:
        Source of randomness for clustering initialization; fixing it makes
        fixes reproducible.
    executor:
        Runtime executor the per-packet estimation fans out on (see
        :mod:`repro.runtime`).  Defaults to a
        :class:`~repro.runtime.executor.SerialExecutor`, which reproduces
        the inline loop exactly.  Estimation is pure and clustering always
        runs in this process with the shared ``rng``, so a
        :class:`~repro.runtime.executor.ParallelExecutor` yields the same
        fixes as serial.
    tracer:
        A :class:`repro.obs.Tracer` producing hierarchical spans
        (``locate > ap[k] > sanitize|smooth|music|cluster > solve``)
        with per-stage timings and attributes; defaults to the zero-cost
        :data:`~repro.obs.NOOP_TRACER`.  With a real tracer, per-packet
        estimation runs inline stage by stage (bypassing the executor)
        so each stage's wall-clock is attributable — tracing is a
        diagnostic mode, not a serving mode.  Under head sampling
        (``ObsConfig(sample_rate=)``) the inline path applies only to
        sampled fixes; sampled-out fixes take the normal executor
        fan-out at full speed.  When the tracer's
        :class:`~repro.obs.ObsConfig` sets ``capture_artifacts``, spans
        also carry the downsampled mean MUSIC pseudospectrum and
        per-cluster (AoA, ToF) statistics.
    """

    def __init__(
        self,
        grid: OfdmGrid,
        bounds: Tuple[float, float, float, float],
        config: Optional[SpotFiConfig] = None,
        rng: Optional[np.random.Generator] = None,
        executor: Optional[Executor] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.grid = grid
        self.config = config or SpotFiConfig()
        self.bounds = bounds
        self.executor = executor or SerialExecutor()
        self.tracer = tracer or NOOP_TRACER
        self._rng = rng or np.random.default_rng(0)
        self._estimators: dict = {}
        self._registry_estimators: dict = {}

    # ------------------------------------------------------------------
    # Per-AP processing (Alg. 2 lines 1-11)
    # ------------------------------------------------------------------
    def estimator_for(self, array: UniformLinearArray) -> JointEstimator:
        """The joint estimator for an AP's array geometry (cached)."""
        key = (array.num_antennas, array.spacing_m)
        if key not in self._estimators:
            model = SteeringModel.for_grid(
                self.grid,
                num_antennas=array.num_antennas,
                antenna_spacing_m=array.spacing_m,
            )
            if self.config.estimation == "music":
                estimator = JointEstimator(
                    model=model,
                    smoothing=self.config.smoothing,
                    music=self.config.music,
                    sanitize=self.config.sanitize,
                )
            elif self.config.estimation == "esprit":
                from repro.core.esprit import EspritEstimator

                estimator = EspritEstimator(
                    model=model,
                    smoothing=self.config.smoothing,
                    music=self.config.music,
                    sanitize=self.config.sanitize,
                )
            else:
                raise EstimationError(
                    f"unknown estimation method {self.config.estimation!r}; "
                    "expected 'music' or 'esprit'"
                )
            self._estimators[key] = estimator
        return self._estimators[key]

    def process_ap(self, array: UniformLinearArray, trace: CsiTrace) -> ApReport:
        """Lines 2-10 for one AP: estimate, cluster, select direct path.

        Any :class:`~repro.errors.ReproError` the AP's estimation raises
        (bad CSI, no peaks, an executor deadline miss) degrades this AP —
        ``direct=None`` with ``failure`` recorded — instead of
        propagating, so callers can proceed on the surviving quorum.
        """
        if self.tracer.enabled and self.tracer.recording:
            return self._traced_ap_report(array, trace, 0)
        used = trace[: self.config.packets_per_fix]
        rssi = used.median_rssi_dbm()
        try:
            estimates = self.estimator_for(array).estimate_trace(
                used, executor=self.executor
            )
        except ReproError as exc:
            return ApReport(
                array=array,
                direct=None,
                rssi_dbm=rssi,
                failure=_failure_text(exc),
            )
        return self._cluster_report(array, used, rssi, estimates)

    def _cluster_report(
        self,
        array: UniformLinearArray,
        used: CsiTrace,
        rssi: float,
        estimates: List[PathEstimate],
    ) -> ApReport:
        """Lines 9-10: cluster pooled estimates and select the direct path.

        Always runs in the calling process so the shared clustering RNG
        advances in AP order regardless of which executor produced the
        estimates — that is what keeps parallel fixes identical to serial.
        """
        min_size = max(
            self.config.min_cluster_size,
            int(np.ceil(self.config.min_cluster_fraction * len(used))),
        )
        try:
            clusters = cluster_estimates(
                estimates,
                num_clusters=self.config.num_clusters,
                method=self.config.clustering_method,
                rng=self._rng,
                min_cluster_size=min_size,
            )
            direct = select_direct_path(clusters, self.config.likelihood)
        except (EstimationError, ClusteringError) as exc:
            return ApReport(
                array=array,
                direct=None,
                rssi_dbm=rssi,
                failure=_failure_text(exc),
            )
        return ApReport(
            array=array,
            direct=direct,
            rssi_dbm=rssi,
            estimates=tuple(estimates),
            clusters=tuple(clusters),
        )

    def _traced_ap_report(
        self, array: UniformLinearArray, trace: CsiTrace, index: int
    ) -> ApReport:
        """Lines 2-10 for one AP with per-stage spans.

        Runs the estimator stage by stage inline (no executor fan-out) so
        sanitize/smooth/music each get an attributable wall-clock; the
        executor path cannot provide that because workers interleave
        whole packets.  Numerically identical to the untraced path.
        """
        tracer = self.tracer
        capture = tracer.config.capture_artifacts
        used = trace[: self.config.packets_per_fix]
        rssi = used.median_rssi_dbm()
        estimator = self.estimator_for(array)
        with tracer.span(
            f"ap[{index}]",
            packets=len(used),
            num_antennas=array.num_antennas,
            rssi_dbm=float(rssi),
        ) as ap_span:
            try:
                with tracer.span("sanitize", packets=len(used)):
                    sanitized = [estimator.stage_sanitize(f.csi) for f in used]
                with tracer.span("smooth"):
                    smoothed = [estimator.stage_smooth(c) for c in sanitized]
                with tracer.span("music", packets=len(smoothed)) as music_span:
                    estimates: List = []
                    spectrum_sum = None
                    aoa_grid = tof_grid = None
                    for i, x in enumerate(smoothed):
                        spectrum, aoa_grid, tof_grid = estimator.stage_music(x)
                        estimates.extend(
                            estimator.stage_peaks(
                                spectrum, aoa_grid, tof_grid, packet_index=i
                            )
                        )
                        if capture:
                            spectrum_sum = (
                                spectrum
                                if spectrum_sum is None
                                else spectrum_sum + spectrum
                            )
                    music_span.set("estimates", len(estimates))
                    if capture and spectrum_sum is not None:
                        music_span.set(
                            "pseudospectrum",
                            downsample_spectrum(
                                spectrum_sum / len(smoothed),
                                aoa_grid,
                                tof_grid,
                                tracer.config.artifact_max_bins,
                            ),
                        )
            except ReproError as exc:
                ap_span.set("estimation_error", str(exc))
                ap_span.set("usable", False)
                return ApReport(
                    array=array,
                    direct=None,
                    rssi_dbm=rssi,
                    failure=_failure_text(exc),
                )
            with tracer.span("cluster", num_estimates=len(estimates)) as cl_span:
                report = self._cluster_report(array, used, rssi, estimates)
                if report.usable:
                    cl_span.set_many(
                        num_clusters=len(report.clusters),
                        direct_aoa_deg=float(report.direct.aoa_deg),
                        direct_likelihood=float(report.direct.likelihood),
                        likelihoods=[
                            round(float(l), 5)
                            for l in report.direct.all_likelihoods
                        ],
                    )
                    if capture:
                        cl_span.set(
                            "clusters",
                            cluster_summary(
                                report.clusters, report.direct.all_likelihoods
                            ),
                        )
            ap_span.set("usable", report.usable)
        return report

    # ------------------------------------------------------------------
    # Fusion (Alg. 2 line 12)
    # ------------------------------------------------------------------
    def default_estimator_name(self) -> str:
        """The registry name of this pipeline's built-in estimation path."""
        return "esprit" if self.config.estimation == "esprit" else "music2d"

    def locate(
        self,
        ap_traces: Sequence[Tuple[UniformLinearArray, CsiTrace]],
        estimator: Optional[str] = None,
    ) -> SpotFiFix:
        """Run the full Algorithm 2 on traces from several APs.

        Per-packet estimation for *all* APs is submitted to the executor
        as one batch, so a parallel executor overlaps packets across APs;
        clustering and fusion then run here in AP order.  With tracing
        enabled the whole run is wrapped in a ``locate`` span.

        ``estimator`` selects a registered estimator (or QoS tier) from
        :mod:`repro.estimators` for this request.  ``None`` — and any
        name resolving to this pipeline's own configuration — runs the
        classic inline path, byte-identical to the historical behaviour;
        anything else dispatches through the registry (see
        :meth:`_locate_with_registry`).  Unknown names raise
        :class:`~repro.errors.UnknownEstimatorError`.
        """
        name = self.default_estimator_name()
        if estimator is not None:
            from repro.estimators import resolve_name

            name = resolve_name(estimator)
        if name != self.default_estimator_name():
            return self._locate_with_registry(name, ap_traces)
        with self.tracer.span("locate", num_aps=len(ap_traces)) as span:
            reports = self.process_aps(ap_traces)
            fix = replace(self.locate_from_reports(reports), estimator=name)
            if span.recording:
                span.set_many(
                    usable_aps=sum(1 for r in reports if r.usable),
                    degraded_aps=list(fix.degraded_aps),
                    position=[
                        round(float(fix.position.x), 4),
                        round(float(fix.position.y), 4),
                    ],
                )
            return fix

    def _locate_with_registry(
        self,
        name: str,
        ap_traces: Sequence[Tuple[UniformLinearArray, CsiTrace]],
    ) -> SpotFiFix:
        """One fix through a registry estimator (the non-default path).

        Estimator instances are cached per name; each AP is estimated
        with per-AP failure isolation and an ``estimate.<name>`` stage
        timing (recorded by :func:`repro.estimators.timed_estimate`,
        which owns the clock — this module stays clock-free).  Fusion is
        delegated to the estimator's ``fuse`` after the same quorum
        check as :meth:`locate_from_reports`.
        """
        from repro.estimators import (
            EstimatorContext,
            create,
            timed_estimate,
            to_report,
        )

        est = self._registry_estimators.get(name)
        if est is None:
            context = EstimatorContext(
                grid=self.grid, bounds=self.bounds, config=self.config
            )
            est = create(name, context)
            self._registry_estimators[name] = est
        with self.tracer.span(
            "locate", num_aps=len(ap_traces), estimator=name
        ) as span:
            estimates = [
                timed_estimate(est, array, trace, self.executor.metrics)
                for array, trace in ap_traces
            ]
            reports = tuple(to_report(e) for e in estimates)
            usable = [e for e in estimates if e.usable]
            quorum = max(2, self.config.min_aps)
            if len(usable) < quorum:
                degraded = tuple(
                    (i, r.failure or "unusable")
                    for i, r in enumerate(reports)
                    if not r.usable
                )
                exc = LocalizationError(
                    f"estimator {name!r}: only {len(usable)} of "
                    f"{len(reports)} APs produced usable paths (quorum "
                    f"{quorum}); degraded: "
                    + (
                        "; ".join(f"ap[{i}] {why}" for i, why in degraded)
                        or "none reported"
                    )
                )
                exc.degraded_aps = degraded
                raise exc
            with self.tracer.span("solve", num_observations=len(usable)):
                result = est.fuse(usable)
            fix = SpotFiFix(result=result, reports=reports, estimator=name)
            if span.recording:
                span.set_many(
                    usable_aps=len(usable),
                    degraded_aps=list(fix.degraded_aps),
                    position=[
                        round(float(fix.position.x), 4),
                        round(float(fix.position.y), 4),
                    ],
                )
            return fix

    def process_aps(
        self, ap_traces: Sequence[Tuple[UniformLinearArray, CsiTrace]]
    ) -> Tuple[ApReport, ...]:
        """Lines 1-11 for several APs, fanning estimation across the executor.

        With tracing enabled, each AP instead runs the inline per-stage
        path (see :meth:`_traced_ap_report`) so the span tree covers
        every stage.

        Failure isolation: per-packet :class:`EstimationError` values are
        already carried through the batch by
        :func:`~repro.core.estimator.estimate_packet_safe`; when the
        batched map itself raises a :class:`~repro.errors.ReproError`
        (a structural CSI error, a deadline miss), estimation falls back
        to one map per AP so the failure degrades only the AP that
        caused it instead of aborting every AP's fix.
        """
        if self.tracer.enabled and self.tracer.recording:
            return tuple(
                self._traced_ap_report(array, trace, k)
                for k, (array, trace) in enumerate(ap_traces)
            )
        prepared = []
        tasks = []
        for array, trace in ap_traces:
            used = trace[: self.config.packets_per_fix]
            estimator = self.estimator_for(array)
            prepared.append((array, used, estimator))
            for index, frame in enumerate(used):
                tasks.append((estimator, frame.csi, index))
        try:
            # Per-task CSI pickling: accepted at trace sizes; cost tracked
            # by BENCH_dist.json.
            results = self.executor.map_ordered(  # repro: noqa REP013
                estimate_packet_safe, tasks, stage="estimate"
            )
        except ReproError:
            return tuple(
                self._isolated_ap_report(array, used, estimator)
                for array, used, estimator in prepared
            )
        reports = []
        position = 0
        for array, used, _ in prepared:
            packet_results = results[position : position + len(used)]
            position += len(used)
            rssi = used.median_rssi_dbm()
            errors = [r for r in packet_results if isinstance(r, EstimationError)]
            if errors:
                reports.append(
                    ApReport(
                        array=array,
                        direct=None,
                        rssi_dbm=rssi,
                        failure=_failure_text(errors[0]),
                    )
                )
                continue
            estimates = [e for packet in packet_results for e in packet]
            reports.append(self._cluster_report(array, used, rssi, estimates))
        return tuple(reports)

    def _isolated_ap_report(
        self, array: UniformLinearArray, used: CsiTrace, estimator: JointEstimator
    ) -> ApReport:
        """Re-run one AP's estimation alone after a batched-map failure.

        Duplicate work for the APs that would have succeeded, but only on
        the failure path — the price of knowing *which* AP poisoned the
        batch while still fixing from the survivors.
        """
        rssi = used.median_rssi_dbm()
        tasks = [(estimator, frame.csi, index) for index, frame in enumerate(used)]
        try:
            # Per-task CSI pickling: accepted at trace sizes; this is the
            # isolation/failure path anyway.
            packet_results = self.executor.map_ordered(  # repro: noqa REP013
                estimate_packet_safe, tasks, stage="estimate"
            )
        except ReproError as exc:
            return ApReport(
                array=array,
                direct=None,
                rssi_dbm=rssi,
                failure=_failure_text(exc),
            )
        errors = [r for r in packet_results if isinstance(r, EstimationError)]
        if errors:
            return ApReport(
                array=array,
                direct=None,
                rssi_dbm=rssi,
                failure=_failure_text(errors[0]),
            )
        estimates = [e for packet in packet_results for e in packet]
        return self._cluster_report(array, used, rssi, estimates)

    def locate_from_reports(self, reports: Sequence[ApReport]) -> SpotFiFix:
        """Fuse precomputed per-AP reports into a position fix.

        Degraded APs are dropped and the Eq. 9 solve runs on the
        surviving quorum, whose likelihood weights the solver
        renormalizes to mean 1 (the degraded APs' influence is
        redistributed).  Raises :class:`LocalizationError` — with the
        degraded APs attached as ``exc.degraded_aps``, a tuple of
        ``(report_index, failure)`` pairs — when fewer than
        ``max(2, config.min_aps)`` APs survive.
        """
        observations = [
            ApObservation(
                array=r.array,
                aoa_deg=r.direct.aoa_deg,
                rssi_dbm=r.rssi_dbm,
                likelihood=r.direct.likelihood,
            )
            for r in reports
            if r.usable
        ]
        quorum = max(2, self.config.min_aps)
        if len(observations) < quorum:
            degraded = tuple(
                (i, r.failure or "unusable")
                for i, r in enumerate(reports)
                if not r.usable
            )
            exc = LocalizationError(
                f"only {len(observations)} of {len(reports)} APs produced "
                f"usable direct paths (quorum {quorum}); degraded: "
                + (
                    "; ".join(f"ap[{i}] {why}" for i, why in degraded)
                    or "none reported"
                )
            )
            exc.degraded_aps = degraded
            raise exc
        localizer = Localizer(
            bounds=self.bounds,
            grid_step_m=self.config.grid_step_m,
            aoa_weight=self.config.aoa_weight,
            rssi_weight=self.config.rssi_weight,
            use_likelihood_weights=self.config.use_likelihood_weights,
        )
        with self.tracer.span("solve", num_observations=len(observations)) as span:
            result = localizer.locate(observations)
            if span.recording:
                span.set_many(
                    objective=float(result.objective),
                    iterations=int(result.iterations),
                    mean_abs_aoa_residual_deg=float(
                        np.mean(np.abs(result.aoa_residuals_deg))
                    )
                    if result.aoa_residuals_deg
                    else 0.0,
                )
        return SpotFiFix(result=result, reports=tuple(reports))
