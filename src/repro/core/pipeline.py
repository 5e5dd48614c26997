"""SpotFi end-to-end — paper Algorithm 2.

:class:`SpotFi` wires the whole system together: for every AP, sanitize
(Alg. 1) + smooth (Fig. 4) + MUSIC (lines 5-6) + peaks (line 7) for each
packet, run as one stacked kernel over the AP's packets, cluster across
packets (line 9), select the direct path by Eq. 8 likelihood
(line 10), then fuse all APs' (AoA, likelihood, RSSI) with the Eq. 9
solver (line 12).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from types import ModuleType
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple, Union, cast

import numpy as np

from repro.core.clustering import PathCluster, cluster_estimates
from repro.core.direct_path import DirectPathEstimate, select_direct_path
from repro.core.esprit import EspritEstimator
from repro.core.estimator import (
    JointEstimator,
    PacketOutcome,
    PathEstimate,
    SubspaceEstimator,
    estimate_ap_packets,
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
from repro.obs.artifacts import cluster_summary
from repro.obs.trace import NOOP_TRACER, Tracer
from repro.runtime.executor import Executor, SerialExecutor
from repro.runtime.metrics import RuntimeMetrics
from repro.wifi.arrays import UniformLinearArray
from repro.wifi.csi import CsiTrace
from repro.wifi.ofdm import OfdmGrid

if TYPE_CHECKING:  # the estimators package imports this module
    from repro.estimators.base import Estimator
    from repro.estimators.music2d import Music2dEstimator


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
        if self.num_clusters < 1:
            raise ConfigurationError(f"num_clusters must be >= 1, got {self.num_clusters}")
        for name, allowed in (
            ("estimation", ("music", "esprit")),
            ("clustering_method", ("gmm", "kmeans")),
        ):
            if getattr(self, name) not in allowed:
                raise ConfigurationError(
                    f"{name} must be one of {allowed}, got {getattr(self, name)!r}"
                )
        if not self.grid_step_m > 0:
            raise ConfigurationError(f"grid_step_m must be > 0, got {self.grid_step_m}")


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


def subspace_estimator(
    model: SteeringModel, config: SpotFiConfig, estimation: str
) -> SubspaceEstimator:
    """Lines 3-7's kernel on ``model``: ESPRIT for ``"esprit"``, else 2-D MUSIC."""
    kernel = EspritEstimator if estimation == "esprit" else JointEstimator
    return kernel(
        model=model, smoothing=config.smoothing, music=config.music, sanitize=config.sanitize
    )


def pool_packets(
    packets: Sequence[PacketOutcome], metrics: Optional[RuntimeMetrics] = None
) -> Union[List[PathEstimate], EstimationError]:
    """One AP's pooled estimates, or its first failed packet's error.

    With ``metrics``, every failed packet is counted under
    ``estimate.errors`` and ``estimate.errors.<kind>``.
    """
    estimates: List[PathEstimate] = []
    first_error: Optional[EstimationError] = None
    for packet in packets:
        if isinstance(packet, EstimationError):
            if metrics is not None:
                metrics.record_error("estimate", kind=type(packet).__name__)
            first_error = first_error or packet
        else:
            estimates.extend(packet)
    return estimates if first_error is None else first_error


def build_ap_report(
    config: SpotFiConfig,
    array: UniformLinearArray,
    used: CsiTrace,
    outcome: Union[List[PathEstimate], ReproError],
    rng: np.random.Generator,
    method: Optional[str] = None,
) -> ApReport:
    """Lines 9-10: the one place an :class:`ApReport` is built.

    ``outcome`` is the AP's pooled estimates or the error that stopped
    its estimation; an error, or a clustering / Eq. 8 failure, gives a
    degraded report.  Clusters at least
    ``max(min_cluster_size, ceil(min_cluster_fraction * len(used)))``
    estimates survive; ``method`` overrides ``config.clustering_method``
    and ``rng`` seeds the clustering.
    """
    rssi = used.median_rssi_dbm()
    if not isinstance(outcome, ReproError):
        min_size = max(
            config.min_cluster_size,
            int(np.ceil(config.min_cluster_fraction * len(used))),
        )
        try:
            clusters = cluster_estimates(
                outcome,
                num_clusters=config.num_clusters,
                method=method or config.clustering_method,
                rng=rng,
                min_cluster_size=min_size,
            )
            return ApReport(
                array=array,
                direct=select_direct_path(clusters, config.likelihood),
                rssi_dbm=rssi,
                estimates=tuple(outcome),
                clusters=tuple(clusters),
            )
        except (EstimationError, ClusteringError) as exc:
            outcome = exc
    return ApReport(
        array=array,
        direct=None,
        rssi_dbm=rssi,
        failure=f"{type(outcome).__name__}: {outcome}",
    )


def localizer_for(
    config: SpotFiConfig, bounds: Tuple[float, float, float, float]
) -> Localizer:
    """The Eq. 9 solver ``config`` describes over ``bounds``."""
    return Localizer(
        bounds=bounds,
        grid_step_m=config.grid_step_m,
        aoa_weight=config.aoa_weight,
        rssi_weight=config.rssi_weight,
        use_likelihood_weights=config.use_likelihood_weights,
    )


class SpotFi:
    """The SpotFi server: Algorithm 2 over (AP trace) collections.

    Every fix, whichever registry estimator it names, takes one path:
    see :meth:`locate`.

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
        Runtime executor the per-AP estimation fans out on (see
        :mod:`repro.runtime`).  Defaults to a
        :class:`~repro.runtime.executor.SerialExecutor`, which reproduces
        the inline loop exactly.  Estimation is pure and clustering always
        runs in this process with the shared ``rng``, so a
        :class:`~repro.runtime.executor.ParallelExecutor` yields the same
        fixes as serial.  Only the ``music2d``/``esprit`` kernels fan out;
        other registry estimators run in this process, where their
        per-geometry dictionaries stay built (shipped to a pool, each
        task rebuilt them: ``mdtrack`` fixes got ~7x slower).
    tracer:
        A :class:`repro.obs.Tracer` producing hierarchical spans
        (``locate > ap[k] > sanitize|smooth|music|esprit|cluster > solve``)
        with per-stage timings and attributes; defaults to the zero-cost
        :data:`~repro.obs.NOOP_TRACER`.  With a real tracer, each AP's
        stacked kernel runs inline under stage spans (bypassing the
        executor) so each stage's wall-clock is attributable — tracing is a
        diagnostic mode, not a serving mode.  Under head sampling
        (``ObsConfig(sample_rate=)``) the inline path applies only to
        sampled fixes; sampled-out fixes take the normal executor
        fan-out at full speed.  When the tracer's
        :class:`~repro.obs.ObsConfig` sets ``capture_artifacts``, spans
        also carry the downsampled mean MUSIC pseudospectrum and
        per-cluster (AoA, ToF) statistics.  Fixes by other estimators
        (``tof``, ``mdtrack``, ...) get ``locate`` and ``solve`` only.
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
        self._registered: dict = {}

    # ------------------------------------------------------------------
    # Per-AP processing (Alg. 2 lines 1-11)
    # ------------------------------------------------------------------
    def estimator_for(
        self, array: UniformLinearArray, estimation: Optional[str] = None
    ) -> SubspaceEstimator:
        """The per-AP kernel for an AP's array geometry (cached).

        A :class:`JointEstimator`, or an ESPRIT one when ``estimation``
        (default ``config.estimation``) is ``"esprit"``.
        """
        estimation = estimation or self.config.estimation
        key = (estimation, array.num_antennas, array.spacing_m)
        if key not in self._estimators:
            model = SteeringModel.for_grid(self.grid, array.num_antennas, array.spacing_m)
            self._estimators[key] = subspace_estimator(model, self.config, estimation)
        return self._estimators[key]

    def process_ap(self, array: UniformLinearArray, trace: CsiTrace) -> ApReport:
        """Lines 2-10 for one AP: ``process_aps`` on a single pair."""
        return self.process_aps([(array, trace)])[0]

    def process_aps(
        self, ap_traces: Sequence[Tuple[UniformLinearArray, CsiTrace]]
    ) -> Tuple[ApReport, ...]:
        """Lines 1-11 for several APs: estimate, cluster, select direct paths.

        ``config.estimation``'s kernel on the pipeline's ``rng``; see
        :meth:`_kernel_reports`.
        """
        return self._kernel_reports(ap_traces, self.config.estimation, self._rng)

    def _kernel_reports(
        self,
        ap_traces: Sequence[Tuple[UniformLinearArray, CsiTrace]],
        estimation: str,
        rng: np.random.Generator,
    ) -> Tuple[ApReport, ...]:
        """Every AP's report from the ``estimation`` kernel, clustered on ``rng``.

        Each trace is cut to ``config.packets_per_fix`` packets and each
        AP's stacked kernel is one task of one executor map
        (:meth:`_estimate`).  Clustering runs here, in AP order, so
        ``rng`` advances the same on any executor and parallel fixes
        equal serial ones.  With a recording tracer each AP instead runs
        inline under stage spans (:meth:`_traced_ap_report`).  An AP
        whose estimation raises degrades alone (``direct=None`` with
        ``failure``); failed packets count under ``estimate.errors``.
        When the map raises a :class:`~repro.errors.ReproError` (a bad
        array geometry, a structural CSI error, a deadline miss), the APs
        re-run one at a time to find the AP that caused it.
        """
        n = self.config.packets_per_fix
        used_pairs = [(array, trace[:n]) for array, trace in ap_traces]
        if self.tracer.enabled and self.tracer.recording:
            return tuple(
                self._traced_ap_report(array, used, k, estimation, rng)
                for k, (array, used) in enumerate(used_pairs)
            )
        outcomes: List[Union[List[PathEstimate], ReproError]]
        try:
            outcomes = list(self._estimate(used_pairs, estimation))
        except ReproError:
            outcomes = []
            for pair in used_pairs:
                try:
                    outcomes.extend(self._estimate([pair], estimation))
                except ReproError as exc:
                    outcomes.append(exc)
        return tuple(
            build_ap_report(self.config, array, used, outcome, rng)
            for (array, used), outcome in zip(used_pairs, outcomes)
        )

    def _estimate(
        self,
        used_pairs: Sequence[Tuple[UniformLinearArray, CsiTrace]],
        estimation: str,
    ) -> List[Union[List[PathEstimate], EstimationError]]:
        """Lines 3-8 for every AP of ``used_pairs`` in one executor map.

        One task per AP runs the ``estimation`` kernel over all its
        packets.  Returns, per AP, its pooled estimates or the first
        failed packet's :class:`EstimationError` (see :func:`pool_packets`).
        A :class:`~repro.errors.ReproError` the map raises propagates.
        """
        tasks = [
            (self.estimator_for(array, estimation), [frame.csi for frame in used])
            for array, used in used_pairs
        ]
        # Per-AP CSI stack pickling (one task per AP): accepted at trace
        # sizes; cost tracked by BENCH_dist.json.
        results = self.executor.map_ordered(  # repro: noqa REP013
            estimate_ap_packets, tasks, stage="estimate"
        )
        return [pool_packets(packets, self.executor.metrics) for packets in results]

    def _traced_ap_report(
        self,
        array: UniformLinearArray,
        used: CsiTrace,
        index: int,
        estimation: str,
        rng: np.random.Generator,
    ) -> ApReport:
        """Lines 2-10 for one AP's ``used`` packets with per-stage spans.

        Runs the same stacked kernel as the executor path, inline, with
        this pipeline's tracer: MUSIC opens ``sanitize``, ``smooth`` and
        ``music`` spans (ESPRIT one ``esprit`` span), then ``cluster``.
        Numerically identical to the untraced path, and failed packets
        are counted the same way.
        """
        tracer = self.tracer
        with tracer.span(
            f"ap[{index}]",
            packets=len(used),
            num_antennas=array.num_antennas,
            rssi_dbm=float(used.median_rssi_dbm()),
        ) as ap_span:
            try:
                estimator = self.estimator_for(array, estimation)
                outcome = pool_packets(
                    estimator.estimate_stack([f.csi for f in used], tracer=tracer),
                    self.executor.metrics,
                )
            except ReproError as exc:
                outcome = exc
            if isinstance(outcome, ReproError):
                ap_span.set("estimation_error", str(outcome))
                ap_span.set("usable", False)
                return build_ap_report(self.config, array, used, outcome, rng)
            with tracer.span("cluster", num_estimates=len(outcome)) as cl_span:
                report = build_ap_report(self.config, array, used, outcome, rng)
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
                    if tracer.config.capture_artifacts:
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
        """The registry name of this pipeline's own estimation kernel."""
        return "esprit" if self.config.estimation == "esprit" else "music2d"

    def estimator_named(self, estimator: Optional[str] = None) -> "Estimator":
        """The registry estimator ``estimator`` names, created once per name.

        ``None`` names :meth:`default_estimator_name`; a tier its default.
        """
        registry = _estimators()
        if estimator is None:
            name = self.default_estimator_name()
        else:
            name = registry.resolve_name(estimator)
        est = self._registered.get(name)
        if est is None:
            context = registry.EstimatorContext(
                grid=self.grid, bounds=self.bounds, config=self.config
            )
            est = self._registered[name] = registry.create(name, context)
        return est

    def locate(
        self,
        ap_traces: Sequence[Tuple[UniformLinearArray, CsiTrace]],
        estimator: Optional[str] = None,
    ) -> SpotFiFix:
        """Run the full Algorithm 2 on traces from several APs.

        ``estimator`` names a registered estimator or QoS tier (``None``:
        :meth:`default_estimator_name`).  Every name takes one path under
        a ``locate`` span: every AP's :class:`ApReport` is built, the
        usable quorum is checked, and Eq. 9 is solved under a ``solve``
        span.  ``music2d`` and ``esprit`` run SpotFi's kernel over the
        executor and cluster here (:meth:`_kernel_reports`): the
        config's own kernel on the pipeline's ``rng``, the other one on
        its estimator's ``rng``; they solve as :meth:`locate_from_reports`
        does.  Any other estimator runs its ``estimate_ap`` per AP in this
        process (``timed_estimate``: stage ``estimate.<name>``, one item
        per AP, failures isolated per AP) and fuses with its own ``fuse``.
        """
        est = self.estimator_named(estimator)
        with self.tracer.span(
            "locate", num_aps=len(ap_traces), estimator=est.name
        ) as span:
            inputs: list
            if est.estimation is None:
                registry = _estimators()
                estimates = [
                    registry.timed_estimate(est, array, trace, self.executor.metrics)
                    for array, trace in ap_traces
                ]
                reports = tuple(registry.to_report(e) for e in estimates)
                inputs = [e for e in estimates if e.usable]
                fuse: Callable[[list], LocalizationResult] = est.fuse
            else:
                own = est.estimation == self.config.estimation
                rng = self._rng if own else cast("Music2dEstimator", est).rng
                reports = self._kernel_reports(ap_traces, est.estimation, rng)
                inputs = _observations(reports)
                fuse = localizer_for(self.config, self.bounds).locate
            self._require_quorum(reports, f"estimator {est.name!r}: ")
            fix = replace(self._solve(reports, fuse, inputs), estimator=est.name)
            if span.recording:
                span.set_many(
                    usable_aps=len(fix.reports) - len(fix.degraded_aps),
                    degraded_aps=list(fix.degraded_aps),
                    position=[
                        round(float(fix.position.x), 4),
                        round(float(fix.position.y), 4),
                    ],
                )
            return fix

    def locate_from_reports(self, reports: Sequence[ApReport]) -> SpotFiFix:
        """Fuse precomputed per-AP reports into a position fix.

        Degraded APs are dropped and the Eq. 9 solve runs on the
        surviving quorum, whose likelihood weights the solver
        renormalizes to mean 1 (the degraded APs' influence is
        redistributed).  Raises :class:`LocalizationError` when fewer
        than ``max(2, config.min_aps)`` APs survive (see
        :meth:`_require_quorum`).
        """
        self._require_quorum(reports)
        localizer = localizer_for(self.config, self.bounds)
        return self._solve(reports, localizer.locate, _observations(reports))

    def _require_quorum(self, reports: Sequence[ApReport], prefix: str = "") -> None:
        """Raise :class:`LocalizationError` below ``max(2, config.min_aps)``.

        The degraded APs ride along as ``exc.degraded_aps``, a tuple of
        ``(report_index, failure)`` pairs.
        """
        usable = sum(1 for r in reports if r.usable)
        quorum = max(2, self.config.min_aps)
        if usable >= quorum:
            return
        degraded = tuple(
            (i, r.failure or "unusable") for i, r in enumerate(reports) if not r.usable
        )
        exc = LocalizationError(
            f"{prefix}only {usable} of {len(reports)} APs produced usable "
            f"direct paths (quorum {quorum}); degraded: "
            + ("; ".join(f"ap[{i}] {why}" for i, why in degraded) or "none reported")
        )
        exc.degraded_aps = degraded
        raise exc

    def _solve(
        self,
        reports: Sequence[ApReport],
        fuse: Callable[[list], LocalizationResult],
        observations: list,
    ) -> SpotFiFix:
        """Line 12: ``fuse`` the usable APs under a ``solve`` span."""
        with self.tracer.span("solve", num_observations=len(observations)) as span:
            result = fuse(observations)
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


def _observations(reports: Sequence[ApReport]) -> List[ApObservation]:
    """The usable APs' Eq. 9 inputs: direct AoA, RSSI and Eq. 8 likelihood."""
    return [
        ApObservation(r.array, r.direct.aoa_deg, r.rssi_dbm, r.direct.likelihood)
        for r in reports
        if r.direct is not None
    ]


def _estimators() -> ModuleType:
    """:mod:`repro.estimators`, imported at call time: it imports this module."""
    import repro.estimators

    return repro.estimators
