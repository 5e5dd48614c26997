"""Balanced tier: mD-Track-style iterative path cancellation.

Instead of scanning the full 2-D (AoA, ToF) MUSIC spectrum per packet,
resolve paths one at a time by alternating 1-D maximizations (the
coordinate-descent decomposition of mD-Track): initialize the delay
from the antenna-summed delay spectrum, refine AoA given the delay and
the delay given the AoA, fit the complex amplitude in closed form, and
subtract the reconstructed path from the residual.  Iteration stops
when the next path falls a configured ratio below the strongest one or
the path budget is exhausted.

Per-packet paths are pooled across the burst and handed to the
pipeline's one report builder (:func:`~repro.core.pipeline.build_ap_report`)
with k-means on a fresh ``default_rng(context.seed)`` per AP (cheap, and
the same on any executor): the same cluster-size floor and Eq. 8
direct-path selection as SpotFi's own kernels, so the output plugs
straight into Eq. 9 fusion.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.estimator import PathEstimate, prepare_csi_all
from repro.core.pipeline import build_ap_report
from repro.core.steering import SteeringModel
from repro.errors import EstimationError
from repro.estimators.base import ApEstimate, Estimator, from_report
from repro.estimators.registry import register
from repro.wifi.arrays import UniformLinearArray
from repro.wifi.csi import CsiTrace

#: AoA search grid (deg) — same span/step as the classic MUSIC grid.
_AOA_GRID = np.arange(-90.0, 90.5, 1.0)

#: Delay grid resolution within one ToF ambiguity period.
_NUM_TOF_BINS = 256


class _ArrayModel:
    """Precomputed steering dictionaries for one array geometry."""

    __slots__ = ("model", "steer_a", "conj_a", "tof_grid", "steer_o", "conj_o")

    def __init__(self, model: SteeringModel) -> None:
        self.model = model
        self.steer_a = model.antenna_vector(_AOA_GRID)  # (Ga, M)
        self.conj_a = self.steer_a.conj()
        self.tof_grid = np.linspace(
            0.0, model.tof_ambiguity_s, _NUM_TOF_BINS, endpoint=False
        )
        self.steer_o = model.subcarrier_vector(self.tof_grid)  # (Gt, N)
        self.conj_o = self.steer_o.conj()


@register("mdtrack", tier="balanced")
class MdTrackEstimator(Estimator):
    """Iterative path cancellation over (AoA, ToF) dictionaries."""

    #: Paths resolved per packet before cancellation stops.
    max_paths: int = 4

    #: Stop when the next path is this far (dB) below the strongest.
    min_rel_power_db: float = 20.0

    #: Alternating 1-D refinement rounds per path.
    refine_rounds: int = 2

    def _model_for(self, array: UniformLinearArray) -> _ArrayModel:
        return self._for_geometry(array, _ArrayModel)

    # ------------------------------------------------------------------
    def _packet_paths(
        self, model: _ArrayModel, csi: np.ndarray, packet_index: int
    ) -> List[PathEstimate]:
        """Resolve up to ``max_paths`` paths from one packet by cancellation."""
        # Deliberate copy: successive interference cancellation mutates the
        # residual in place; the caller's CSI must stay intact.
        residual = csi.astype(np.complex128, copy=True)  # repro: noqa REP012
        m, n = residual.shape
        if float(np.linalg.norm(residual)) <= 0.0:
            raise EstimationError("zero-power CSI packet")
        rel_floor = 10.0 ** (-self.min_rel_power_db / 10.0)
        paths: List[PathEstimate] = []
        strongest = 0.0
        for _ in range(self.max_paths):
            # Initialize the delay from the antenna-summed delay spectrum.
            ti = int(np.argmax(np.abs(model.conj_o @ residual.sum(axis=0))))
            ai = 0
            for _ in range(self.refine_rounds):
                w = residual @ model.conj_o[ti]  # (M,)
                ai = int(np.argmax(np.abs(model.conj_a @ w)))
                z = model.conj_a[ai] @ residual  # (N,)
                ti = int(np.argmax(np.abs(model.conj_o @ z)))
            a = model.steer_a[ai]
            b = model.steer_o[ti]
            alpha = (a.conj() @ residual @ b.conj()) / (m * n)
            power = float(np.abs(alpha) ** 2)
            if paths and power < strongest * rel_floor:
                break
            strongest = max(strongest, power)
            paths.append(
                PathEstimate(
                    aoa_deg=float(_AOA_GRID[ai]),
                    tof_s=float(model.tof_grid[ti]),
                    power=power,
                    packet_index=packet_index,
                )
            )
            residual = residual - alpha * np.outer(a, b)
        return paths

    # ------------------------------------------------------------------
    def estimate_ap(self, array: UniformLinearArray, trace: CsiTrace) -> ApEstimate:
        config = self.context.config
        used = trace[: config.packets_per_fix]
        model = self._model_for(array)
        stack = prepare_csi_all(
            [frame.csi for frame in used], model.model, config.sanitize
        )
        estimates: List[PathEstimate] = []
        for index, csi in enumerate(stack):
            estimates.extend(self._packet_paths(model, csi, index))
        rng = np.random.default_rng(self.context.seed)
        return from_report(
            build_ap_report(config, array, used, estimates, rng, method="kmeans")
        )
