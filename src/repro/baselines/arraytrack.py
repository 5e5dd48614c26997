"""The "practical implementation of ArrayTrack" the paper compares with.

Paper Sec. 4.1: "we compare SpotFi with practical implementation of
ArrayTrack based on CSI from a WiFi NIC with three antennas and no further
hardware modifications [8]" — i.e. the Phaser localization application:
antenna-only MUSIC per packet, the strongest spectrum direction as the
direct-path AoA (energy-based selection), triangulation over APs.

We reuse the same localization backend (Eq. 9 restricted to AoA terms with
equal AP weights) so the comparison isolates the estimation/selection
differences, exactly as the paper's evaluation does (it feeds "the same
data" to both systems).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.music_aoa import MusicAoaConfig, MusicAoaEstimator
from repro.core.localization import ApObservation, LocalizationResult, Localizer
from repro.core.peaks import interior_maxima
from repro.core.steering import SteeringModel
from repro.errors import EstimationError, LocalizationError
from repro.wifi.arrays import UniformLinearArray
from repro.wifi.csi import CsiTrace
from repro.wifi.ofdm import OfdmGrid


@dataclass(frozen=True)
class ArrayTrackReport:
    """Per-AP outcome of the ArrayTrack baseline.

    ``failure`` is set when no packet produced a spectrum: the first
    packet's estimation error, or "empty trace".
    """

    array: UniformLinearArray
    aoa_deg: float
    num_packets_used: int
    failure: Optional[str] = None

    @property
    def usable(self) -> bool:
        return bool(np.isfinite(self.aoa_deg))


class ArrayTrack:
    """3-antenna ArrayTrack/Phaser-style localizer.

    Parameters
    ----------
    grid:
        OFDM grid of the CSI (only the carrier matters for pure AoA).
    bounds:
        Localization search rectangle.
    config:
        MUSIC-AoA options.
    packets_per_fix:
        Packets used per fix (kept equal to SpotFi's for fairness).
    grid_step_m:
        Localization grid resolution.
    """

    def __init__(
        self,
        grid: OfdmGrid,
        bounds: Tuple[float, float, float, float],
        config: Optional[MusicAoaConfig] = None,
        packets_per_fix: int = 40,
        grid_step_m: float = 0.25,
    ) -> None:
        self.grid = grid
        self.bounds = bounds
        self.config = config or MusicAoaConfig()
        self.packets_per_fix = packets_per_fix
        self.grid_step_m = grid_step_m
        self._estimators: dict = {}

    def estimator_for(self, array: UniformLinearArray) -> MusicAoaEstimator:
        key = (array.num_antennas, array.spacing_m)
        if key not in self._estimators:
            model = SteeringModel.for_grid(
                self.grid,
                num_antennas=array.num_antennas,
                antenna_spacing_m=array.spacing_m,
            )
            self._estimators[key] = MusicAoaEstimator(model=model, config=self.config)
        return self._estimators[key]

    # ------------------------------------------------------------------
    def process_ap(self, array: UniformLinearArray, trace: CsiTrace) -> ArrayTrackReport:
        """Direct-path AoA for one AP.

        ArrayTrack accumulates per-packet MUSIC pseudospectra and takes the
        dominant direction of the aggregate (its "spectrum synthesis").  We
        average the per-packet spectra in the log domain (geometric mean),
        which rewards directions that are consistently strong across
        packets, then pick the strongest interior peak.
        """
        used = trace[: self.packets_per_fix]
        estimator = self.estimator_for(array)
        log_sum = None
        num_used = 0
        failure: Optional[EstimationError] = None
        spectra, grid = estimator.spectra([frame.csi for frame in used])
        for spectrum in spectra:
            if isinstance(spectrum, EstimationError):
                failure = failure or spectrum
                continue
            log_spec = np.log(np.maximum(spectrum, 1e-18))
            log_sum = log_spec if log_sum is None else log_sum + log_spec
            num_used += 1
        if log_sum is None:
            return ArrayTrackReport(
                array=array,
                aoa_deg=float("nan"),
                num_packets_used=0,
                failure=str(failure or "empty trace"),
            )
        aggregate = log_sum / num_used
        # Strongest interior local maximum of the aggregate spectrum.
        candidates = interior_maxima(aggregate)
        if candidates.size == 0:
            best = int(np.argmax(aggregate))
        else:
            best = int(candidates[np.argmax(aggregate[candidates])])
        return ArrayTrackReport(
            array=array,
            aoa_deg=float(grid[best]),
            num_packets_used=num_used,
        )

    def locate(
        self, ap_traces: Sequence[Tuple[UniformLinearArray, CsiTrace]]
    ) -> LocalizationResult:
        """Triangulate from per-AP strongest-direction AoAs."""
        reports = [self.process_ap(array, trace) for array, trace in ap_traces]
        observations = [
            ApObservation(
                array=r.array,
                aoa_deg=r.aoa_deg,
                rssi_dbm=float("nan"),
                likelihood=1.0,
            )
            for r in reports
            if r.usable
        ]
        if len(observations) < 2:
            raise LocalizationError(
                f"ArrayTrack: only {len(observations)} APs produced AoA estimates"
            )
        localizer = Localizer(
            bounds=self.bounds,
            grid_step_m=self.grid_step_m,
            use_likelihood_weights=False,
        )
        return localizer.locate_aoa_only(observations)
