"""Balanced-tier adapters for the :mod:`repro.baselines` AoA estimators.

Wrap antenna-only MUSIC (``music-aoa``) and the ArrayTrack/Phaser-style
spectrum-synthesis variant (``arraytrack``) behind the estimator
protocol.  Both measure AoA only — no usable ToF, no per-path
likelihood — so they fuse through the AoA-restricted Eq. 9 solve
(``use_rssi = False``) exactly as the baseline comparisons do.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.arraytrack import ArrayTrack
from repro.baselines.music_aoa import MusicAoaEstimator
from repro.errors import EstimationError
from repro.estimators.base import (
    ApEstimate,
    EstimatedPath,
    Estimator,
    EstimatorContext,
)
from repro.estimators.registry import register
from repro.wifi.arrays import UniformLinearArray
from repro.wifi.csi import CsiTrace


@register("music-aoa", tier="balanced")
class MusicAoaAdapter(Estimator):
    """Antenna-only MUSIC: median strongest-peak AoA across the burst."""

    use_rssi = False

    def estimate_ap(self, array: UniformLinearArray, trace: CsiTrace) -> ApEstimate:
        used = trace[: self.context.config.packets_per_fix]
        rssi = used.median_rssi_dbm()
        estimator = self._for_geometry(array, MusicAoaEstimator)
        aoas = []
        failure: Optional[EstimationError] = None
        for peaks in estimator.estimate_stack([frame.csi for frame in used]):
            if isinstance(peaks, EstimationError):
                failure = failure or peaks
                continue
            if peaks:
                aoas.append(peaks[0].aoa_deg)
        if not aoas:
            raise EstimationError(
                f"MUSIC-AoA found no peaks in any packet: {failure or 'empty trace'}"
            )
        confidence = len(aoas) / max(1, len(used))
        path = EstimatedPath(
            aoa_deg=float(np.median(np.asarray(aoas))),
            tof_s=0.0,  # antenna-only MUSIC measures no delay
            weight=confidence,
        )
        return ApEstimate(
            array=array, paths=(path,), confidence=confidence, rssi_dbm=rssi
        )


@register("arraytrack", tier="balanced")
class ArrayTrackAdapter(Estimator):
    """ArrayTrack spectrum synthesis: dominant direction of the aggregate."""

    use_rssi = False

    def __init__(self, context: EstimatorContext) -> None:
        super().__init__(context)
        self._arraytrack = ArrayTrack(
            context.grid,
            bounds=context.bounds,
            packets_per_fix=context.config.packets_per_fix,
            grid_step_m=context.config.grid_step_m,
        )

    def estimate_ap(self, array: UniformLinearArray, trace: CsiTrace) -> ApEstimate:
        used = trace[: self.context.config.packets_per_fix]
        rssi = used.median_rssi_dbm()
        report = self._arraytrack.process_ap(array, trace)
        if not report.usable:
            raise EstimationError(
                f"ArrayTrack produced no usable aggregate-spectrum peak: "
                f"{report.failure}"
            )
        confidence = report.num_packets_used / max(1, len(used))
        path = EstimatedPath(
            aoa_deg=float(report.aoa_deg),
            tof_s=0.0,  # spectrum synthesis measures no delay
            weight=confidence,
        )
        return ApEstimate(
            array=array, paths=(path,), confidence=confidence, rssi_dbm=rssi
        )
