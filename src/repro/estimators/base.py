"""The :class:`Estimator` protocol — one seam, many algorithms.

Every estimator in :mod:`repro.estimators` consumes a CSI burst for one
AP and produces an :class:`ApEstimate`: a tuple of ``(AoA, ToF, weight)``
:class:`EstimatedPath` entries (direct path first) plus a scalar
confidence.  Fusion across APs has a sensible default (Eq. 9 through
:func:`~repro.core.pipeline.localizer_for`) that subclasses override
when their output needs a different solver configuration — the ToF-only
coarse tier, for example, zeroes the AoA term.

The conversion helpers :func:`to_report` / :func:`from_report` bridge
between :class:`ApEstimate` and the pipeline's
:class:`~repro.core.pipeline.ApReport`, the per-AP type of every fix.

Timing lives here (not in :mod:`repro.core`, which is clock-free by
lint rule REP004): :func:`timed_estimate` wraps one ``estimate_ap``
call, records ``estimate.<name>`` stage timings on a
:class:`~repro.runtime.metrics.RuntimeMetrics`, and degrades library
errors into an unusable :class:`ApEstimate` instead of propagating.
:meth:`~repro.core.pipeline.SpotFi.locate` calls it once per AP.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.core.clustering import PathCluster
from repro.core.direct_path import DirectPathEstimate
from repro.core.localization import ApObservation, LocalizationResult
from repro.core.pipeline import ApReport, SpotFiConfig, localizer_for
from repro.core.steering import SteeringModel
from repro.errors import ReproError
from repro.runtime.metrics import RuntimeMetrics
from repro.wifi.arrays import UniformLinearArray
from repro.wifi.csi import CsiTrace
from repro.wifi.ofdm import OfdmGrid

T = TypeVar("T")


@dataclass(frozen=True)
class EstimatedPath:
    """One propagation path an estimator resolved at one AP.

    Attributes
    ----------
    aoa_deg:
        Angle of arrival (deg from the array normal).  Estimators that
        cannot measure AoA (the ToF-only tier) report ``0.0`` and rely
        on a ``fuse`` override that ignores the angle term.
    tof_s:
        Relative time of flight (s, STO-ambiguous on commodity NICs).
    weight:
        Relative strength/likelihood of this path among the AP's paths.
    """

    aoa_deg: float
    tof_s: float
    weight: float = 1.0


@dataclass(frozen=True)
class ApEstimate:
    """Everything an estimator derived from one AP's CSI burst.

    ``paths`` is ordered direct path first; ``confidence`` is the
    estimator's belief in that direct path (used as the AP's Eq. 9
    likelihood weight).  A failed AP has ``failure`` set and no paths.
    """

    array: UniformLinearArray
    paths: Tuple[EstimatedPath, ...] = ()
    confidence: float = 0.0
    rssi_dbm: float = float("nan")
    failure: Optional[str] = None

    @property
    def usable(self) -> bool:
        """True when the AP produced at least one path and no failure."""
        return self.failure is None and bool(self.paths)

    @property
    def direct(self) -> EstimatedPath:
        """The direct path (first entry; raises on an unusable AP)."""
        return self.paths[0]


@dataclass(frozen=True)
class EstimatorContext:
    """Immutable construction context shared by every estimator.

    Attributes
    ----------
    grid:
        OFDM grid the CSI was measured on.
    bounds:
        (x0, y0, x1, y1) localization search rectangle.
    config:
        The pipeline's :class:`~repro.core.pipeline.SpotFiConfig`;
        estimators honor ``packets_per_fix``, clustering knobs, and the
        Eq. 9 weights where applicable.
    seed:
        Seed for any estimator-internal randomness (clustering init);
        fixed per context so repeated fixes are reproducible.
    """

    grid: OfdmGrid
    bounds: Tuple[float, float, float, float]
    config: SpotFiConfig = field(default_factory=SpotFiConfig)
    seed: int = 0


class Estimator(ABC):
    """Base class of every registered estimator.

    Class attributes ``name`` and ``tier`` are stamped by the
    :func:`~repro.estimators.registry.register` decorator; ``use_rssi``
    steers the default :meth:`fuse` between the full Eq. 9 solve and
    its AoA-only restriction.  ``estimation`` is set (``"music"`` or
    ``"esprit"``) only on the estimators that are SpotFi's own kernel;
    :meth:`~repro.core.pipeline.SpotFi.locate` runs those itself.
    """

    name: ClassVar[str] = ""
    tier: ClassVar[str] = "balanced"
    use_rssi: ClassVar[bool] = True
    estimation: ClassVar[Optional[str]] = None

    def __init__(self, context: EstimatorContext) -> None:
        self.context = context
        self._geometry: Dict[Tuple[int, float], object] = {}

    def _for_geometry(
        self, array: UniformLinearArray, build: Callable[[SteeringModel], T]
    ) -> T:
        """``build`` of the context grid's steering model for ``array`` (cached)."""
        key = (array.num_antennas, array.spacing_m)
        if key not in self._geometry:
            self._geometry[key] = build(SteeringModel.for_grid(self.context.grid, *key))
        return self._geometry[key]  # type: ignore[return-value]

    @abstractmethod
    def estimate_ap(self, array: UniformLinearArray, trace: CsiTrace) -> ApEstimate:
        """Resolve paths from one AP's CSI burst.

        May raise any :class:`~repro.errors.ReproError`;
        :func:`timed_estimate` degrades those into an unusable
        :class:`ApEstimate` so one bad AP never aborts a fix.
        """

    def fuse(self, estimates: Sequence[ApEstimate]) -> LocalizationResult:
        """Fuse usable per-AP estimates into a position (Eq. 9 default).

        Callers pass only usable estimates and enforce the quorum; the
        solver still re-checks its own ``min_aps`` floor.
        """
        observations = [
            ApObservation(e.array, e.direct.aoa_deg, e.rssi_dbm, e.confidence)
            for e in estimates
        ]
        localizer = localizer_for(self.context.config, self.context.bounds)
        if self.use_rssi:
            return localizer.locate(observations)
        return localizer.locate_aoa_only(observations)


def to_report(estimate: ApEstimate) -> ApReport:
    """Convert an :class:`ApEstimate` into a pipeline :class:`ApReport`.

    Paths become single-member :class:`~repro.core.clustering.PathCluster`
    entries (zero variance — the estimator already aggregated packets)
    and the direct path becomes a
    :class:`~repro.core.direct_path.DirectPathEstimate` carrying the
    estimator confidence as its likelihood.
    """
    if not estimate.usable:
        return ApReport(
            array=estimate.array,
            direct=None,
            rssi_dbm=estimate.rssi_dbm,
            failure=estimate.failure or "estimator produced no paths",
        )
    clusters = tuple(
        PathCluster(
            mean_aoa_deg=float(p.aoa_deg),
            mean_tof_s=float(p.tof_s),
            var_aoa_deg2=0.0,
            var_tof_s2=0.0,
            count=1,
            mean_power=float(p.weight),
        )
        for p in estimate.paths
    )
    weights = tuple(float(p.weight) for p in estimate.paths)
    direct = DirectPathEstimate(
        aoa_deg=float(estimate.direct.aoa_deg),
        tof_s=float(estimate.direct.tof_s),
        likelihood=float(estimate.confidence),
        cluster=clusters[0],
        all_clusters=clusters,
        all_likelihoods=weights,
    )
    return ApReport(
        array=estimate.array,
        direct=direct,
        rssi_dbm=estimate.rssi_dbm,
        clusters=clusters,
    )


def from_report(report: ApReport) -> ApEstimate:
    """Convert a pipeline :class:`ApReport` into an :class:`ApEstimate`.

    Used by the 2-D MUSIC and mdtrack estimators: the direct path
    leads, the other clusters follow with their Eq. 8 likelihoods as
    weights.
    """
    if not report.usable or report.direct is None:
        return ApEstimate(
            array=report.array,
            rssi_dbm=report.rssi_dbm,
            failure=report.failure or "unusable AP report",
        )
    direct = report.direct
    paths: List[EstimatedPath] = [
        EstimatedPath(
            aoa_deg=float(direct.aoa_deg),
            tof_s=float(direct.tof_s),
            weight=float(direct.likelihood),
        )
    ]
    for cluster, likelihood in zip(direct.all_clusters, direct.all_likelihoods):
        if cluster is direct.cluster:
            continue
        paths.append(
            EstimatedPath(
                aoa_deg=float(cluster.mean_aoa_deg),
                tof_s=float(cluster.mean_tof_s),
                weight=float(likelihood),
            )
        )
    return ApEstimate(
        array=report.array,
        paths=tuple(paths),
        confidence=float(direct.likelihood),
        rssi_dbm=report.rssi_dbm,
    )


def timed_estimate(
    estimator: Estimator,
    array: UniformLinearArray,
    trace: CsiTrace,
    metrics: Optional[RuntimeMetrics] = None,
) -> ApEstimate:
    """Run one ``estimate_ap`` call with timing and failure isolation.

    Records an ``estimate.<name>`` stage completion (feeding the
    per-estimator Prometheus histogram) and turns any
    :class:`~repro.errors.ReproError` into an unusable estimate with
    the failure text attached, so one bad AP never aborts a fix.
    """
    start = time.perf_counter()
    try:
        estimate = estimator.estimate_ap(array, trace)
    except ReproError as exc:
        used = trace[: estimator.context.config.packets_per_fix]
        estimate = ApEstimate(
            array=array,
            rssi_dbm=used.median_rssi_dbm(),
            failure=f"{type(exc).__name__}: {exc}",
        )
    if metrics is not None:
        metrics.record_complete(
            f"estimate.{estimator.name}", time.perf_counter() - start
        )
    return estimate
