"""Coarse tier: ToF-only ranging — the cheapest registered estimator.

One delay spectrum per AP: accumulate ``sum_m |Omega^H csi_m|^2``
across antennas and packets on a fixed delay grid, then take the
*earliest* strong local maximum (within a threshold of the global peak)
as the relative direct-path delay — the first-arrival rule of
ToF-ranging systems.

Commodity CSI delays are STO-relative, so the absolute range is not
trustworthy; fusion therefore ignores the AoA/ToF geometry entirely
and localizes from RSSI path-loss consistency (Eq. 9 with the angle
term zeroed), which is exactly the honesty a coarse tier owes: a fast,
rough fix that keeps serving when breakers force a downgrade.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence, Tuple

import numpy as np

from repro.core.estimator import prepare_csi_all
from repro.core.localization import ApObservation, LocalizationResult
from repro.core.pipeline import localizer_for
from repro.core.peaks import interior_maxima
from repro.core.steering import SteeringModel
from repro.errors import EstimationError
from repro.estimators.base import ApEstimate, EstimatedPath, Estimator
from repro.estimators.registry import register
from repro.wifi.arrays import UniformLinearArray
from repro.wifi.csi import CsiTrace

#: Delay grid resolution within one ToF ambiguity period.
_NUM_TOF_BINS = 256

#: A local maximum within this many dB of the global peak counts as strong.
_PEAK_WINDOW_DB = 10.0


@register("tof", tier="coarse")
class TofEstimator(Estimator):
    """Earliest-strong-peak delay estimation with RSSI-only fusion."""

    def _model_for(
        self, array: UniformLinearArray
    ) -> Tuple[SteeringModel, np.ndarray, np.ndarray]:
        return self._for_geometry(array, _delay_dictionary)

    def estimate_ap(self, array: UniformLinearArray, trace: CsiTrace) -> ApEstimate:
        config = self.context.config
        used = trace[: config.packets_per_fix]
        rssi = used.median_rssi_dbm()
        model, tof_grid, conj_o = self._model_for(array)
        stack = prepare_csi_all([frame.csi for frame in used], model, config.sanitize)
        if not len(stack):
            raise EstimationError("empty CSI trace: no packets to range")
        spectrum = delay_spectrum(stack, conj_o)
        peak = float(spectrum.max())
        if peak <= 0.0:
            raise EstimationError("degenerate delay spectrum (zero CSI?)")
        threshold = peak * 10.0 ** (-_PEAK_WINDOW_DB / 10.0)
        candidates = interior_maxima(spectrum)
        candidates = candidates[spectrum[candidates] >= threshold]
        best = int(candidates[0]) if candidates.size else int(np.argmax(spectrum))
        confidence = float(spectrum[best] / peak)
        path = EstimatedPath(
            aoa_deg=0.0,  # placeholder: this tier measures no angle
            tof_s=float(tof_grid[best]),
            weight=confidence,
        )
        return ApEstimate(
            array=array,
            paths=(path,),
            confidence=confidence,
            rssi_dbm=rssi,
        )

    def fuse(self, estimates: Sequence[ApEstimate]) -> LocalizationResult:
        """RSSI-only Eq. 9: the AoA term is zeroed (no angle measured)."""
        observations = [
            ApObservation(e.array, 0.0, e.rssi_dbm, e.confidence) for e in estimates
        ]
        config = replace(
            self.context.config,
            aoa_weight=0.0,
            rssi_weight=1.0,
            use_likelihood_weights=False,
        )
        return localizer_for(config, self.context.bounds).locate(observations)


def _delay_dictionary(
    model: SteeringModel,
) -> Tuple[SteeringModel, np.ndarray, np.ndarray]:
    """``model``, its delay grid and the conjugate (Gt, N) delay steering."""
    tof_grid = np.linspace(0.0, model.tof_ambiguity_s, _NUM_TOF_BINS, endpoint=False)
    return model, tof_grid, model.subcarrier_vector(tof_grid).conj()


def delay_spectrum(stack: np.ndarray, conj_o: np.ndarray) -> np.ndarray:
    """``sum_m |Omega^H csi_m|^2`` over a ``(K, M, N)`` packet stack.

    ``(K, M, N) @ (N, Gt)`` gives every packet's per-antenna delay
    responses in one product; their powers are summed over antennas,
    then over packets in packet order, as a per-packet running sum does.
    """
    responses = stack @ conj_o.T
    per_packet = np.add.reduce(np.abs(responses) ** 2, axis=1)  # (K, Gt)
    return np.add.reduce(per_packet, axis=0)
