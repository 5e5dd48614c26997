"""Precise-tier estimators: SpotFi's own 2-D superresolution kernels.

``music2d`` and ``esprit`` are the pipeline's per-AP path (sanitize ->
smooth -> 2-D MUSIC/ESPRIT -> cluster -> Eq. 8 direct-path selection)
under their registry names.  :meth:`~repro.core.pipeline.SpotFi.locate`
recognizes them by ``estimation`` and runs that path itself, clustering
on this estimator's ``rng`` when it is not the config's own kernel; a
direct :meth:`~Music2dEstimator.estimate_ap` call runs the same core
functions on that generator too.  These are the accuracy
workhorses — and the latency ceiling the cheaper tiers are benchmarked
against.
"""

from __future__ import annotations

from typing import ClassVar, Optional

import numpy as np

from repro.core.pipeline import build_ap_report, pool_packets, subspace_estimator
from repro.errors import ReproError
from repro.estimators.base import ApEstimate, Estimator, EstimatorContext, from_report
from repro.estimators.registry import register
from repro.wifi.arrays import UniformLinearArray
from repro.wifi.csi import CsiTrace


@register("music2d", tier="precise")
class Music2dEstimator(Estimator):
    """Full SpotFi 2-D MUSIC over smoothed CSI — the paper's Algorithm 2."""

    estimation: ClassVar[Optional[str]] = "music"

    def __init__(self, context: EstimatorContext) -> None:
        super().__init__(context)
        #: Clustering generator, advancing across this estimator's APs.
        self.rng = np.random.default_rng(context.seed)

    def estimate_ap(self, array: UniformLinearArray, trace: CsiTrace) -> ApEstimate:
        config = self.context.config
        used = trace[: config.packets_per_fix]
        try:
            kernel = self._for_geometry(
                array, lambda model: subspace_estimator(model, config, str(self.estimation))
            )
            outcome = pool_packets(kernel.estimate_stack([frame.csi for frame in used]))
        except ReproError as exc:
            outcome = exc
        return from_report(build_ap_report(config, array, used, outcome, self.rng))


@register("esprit", tier="precise")
class EspritEstimator(Music2dEstimator):
    """Grid-free 2-D ESPRIT on the same smoothed-CSI front end."""

    estimation: ClassVar[Optional[str]] = "esprit"
