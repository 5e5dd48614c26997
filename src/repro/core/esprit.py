"""Joint (AoA, ToF) estimation via shift invariance (ESPRIT / JADE).

The paper builds on the joint angle-delay estimation literature that
exploits *shift invariance* instead of spectral search (its refs [42, 43]:
van der Veen, Vanderveen & Paulraj).  This module implements that
alternative estimator on the same smoothed CSI matrix SpotFi uses:

* the sensor subarray is doubly shift-invariant — dropping the last
  subcarrier row and the first subcarrier row yields selections J1/J2 with
  ``J2 E_s = J1 E_s Psi_tau`` whose eigenvalues are ``Omega(tau_k)``;
  the analogous antenna-direction selection yields ``Phi(theta_k)``;
* solving both invariance equations in the least-squares sense and
  diagonalizing the ToF operator pairs each path's AoA with its ToF
  automatically (the AoA operator is transformed into the ToF operator's
  eigenbasis, where it is approximately diagonal).

Compared to the 2-D MUSIC search, ESPRIT is grid-free and an order of
magnitude faster per packet.  Two caveats: it is more sensitive to
coherent-path residual correlation, and the automatic pairing requires
the ToF eigenvalues to be *distinct* — two paths at the same delay
defeat the diagonalization regardless of angular separation (the
spectral search has no such failure mode).  ``EspritEstimator`` mirrors
``JointEstimator``'s interface
so it can drop into the pipeline (``SpotFiConfig(estimation="esprit")``)
and the ablation benchmark compares both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.estimator import PathEstimate
from repro.core.music import MusicConfig, covariance, forward_backward_average
from repro.core.sanitize import sanitize_csi
from repro.core.smoothing import SmoothingConfig, smooth_csi
from repro.core.steering import SteeringModel
from repro.errors import EstimationError
from repro.wifi.csi import CsiTrace, validate_csi_matrix


def _selection_indices(
    sub_antennas: int, sub_subcarriers: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Row-index selections (J1, J2) for both shift directions.

    Rows of the smoothed matrix are antenna-major: index = m * N + n.
    Returns ``(tau_j1, tau_j2, theta_j1, theta_j2)``.
    """
    m = np.arange(sub_antennas)
    n = np.arange(sub_subcarriers)
    grid_m, grid_n = np.meshgrid(m, n, indexing="ij")
    flat = (grid_m * sub_subcarriers + grid_n).ravel()
    idx = flat.reshape(sub_antennas, sub_subcarriers)
    tau_j1 = idx[:, :-1].ravel()
    tau_j2 = idx[:, 1:].ravel()
    theta_j1 = idx[:-1, :].ravel()
    theta_j2 = idx[1:, :].ravel()
    return tau_j1, tau_j2, theta_j1, theta_j2


@dataclass
class EspritEstimator:
    """Shift-invariance joint (AoA, ToF) estimator.

    Attributes
    ----------
    model:
        Steering model of the full array (e.g. 3 x 30 Intel 5300).
    smoothing:
        Subarray configuration (shared with the MUSIC path).
    music:
        Reused for its subspace parameters (eigenvalue threshold,
        max_paths, forward_backward); the grids are ignored.
    sanitize:
        Apply Algorithm 1 first.
    """

    model: SteeringModel
    smoothing: SmoothingConfig = field(default_factory=SmoothingConfig)
    music: MusicConfig = field(default_factory=MusicConfig)
    sanitize: bool = True

    def __post_init__(self) -> None:
        self._sub_model = self.model.subarray_model(
            self.smoothing.sub_antennas, self.smoothing.sub_subcarriers
        )
        self._selections = _selection_indices(
            self.smoothing.sub_antennas, self.smoothing.sub_subcarriers
        )

    @property
    def subarray_model(self) -> SteeringModel:
        return self._sub_model

    # ------------------------------------------------------------------
    def estimate_packet(
        self, csi: np.ndarray, packet_index: int = 0
    ) -> List[PathEstimate]:
        """Grid-free (AoA, ToF) estimates for one packet.

        Returns estimates sorted by descending path power (least-squares
        amplitude against the estimated steering vectors).
        """
        csi = validate_csi_matrix(csi)
        if csi.shape != (self.model.num_antennas, self.model.num_subcarriers):
            raise EstimationError(
                f"CSI shape {csi.shape} does not match the steering model "
                f"({self.model.num_antennas}, {self.model.num_subcarriers})"
            )
        if self.sanitize:
            csi = sanitize_csi(csi)
        x = smooth_csi(csi, self.smoothing)
        r = covariance(x)
        if self.music.forward_backward:
            r = forward_backward_average(r)
        eigenvalues, eigenvectors = np.linalg.eigh((r + r.conj().T) / 2.0)
        eigenvalues = eigenvalues[::-1]
        eigenvectors = eigenvectors[:, ::-1]
        if eigenvalues[0] <= 0:
            raise EstimationError("degenerate covariance (zero CSI?)")
        num_paths = int(
            np.sum(eigenvalues > self.music.eigenvalue_threshold_ratio * eigenvalues[0])
        )
        # Shift invariance needs J1 E_s full column rank: L cannot exceed
        # the smaller selection's row count nor make pinv ill-posed.
        tau_j1, tau_j2, theta_j1, theta_j2 = self._selections
        limit = min(self.music.max_paths, len(tau_j1) - 1, len(theta_j1) - 1)
        num_paths = int(np.clip(num_paths, 1, limit))
        e_signal = eigenvectors[:, :num_paths]

        f_tau = np.linalg.lstsq(e_signal[tau_j1], e_signal[tau_j2], rcond=None)[0]
        f_theta = np.linalg.lstsq(e_signal[theta_j1], e_signal[theta_j2], rcond=None)[0]

        # Diagonalize the ToF operator; read the AoA operator in the same
        # basis (automatic pairing).
        tau_eigs, t = np.linalg.eig(f_tau)
        try:
            t_inv = np.linalg.inv(t)
        except np.linalg.LinAlgError:
            raise EstimationError("ESPRIT pairing failed: defective ToF operator")
        theta_eigs = np.diag(t_inv @ f_theta @ t)

        estimates = []
        for omega, phi in zip(tau_eigs, theta_eigs):
            tof = self._tof_from_omega(omega)
            aoa = self._aoa_from_phi(phi)
            if aoa is None:
                continue
            estimates.append((aoa, tof))
        if not estimates:
            return []
        powers = self._path_powers(csi, estimates)
        results = [
            PathEstimate(
                aoa_deg=aoa, tof_s=tof, power=float(p), packet_index=packet_index
            )
            for (aoa, tof), p in zip(estimates, powers)
        ]
        results.sort(key=lambda e: -e.power)
        return results

    def estimate_trace(self, trace: CsiTrace) -> List[PathEstimate]:
        """Estimates pooled over every packet of a trace."""
        estimates: List[PathEstimate] = []
        for index, frame in enumerate(trace):
            estimates.extend(self.estimate_packet(frame.csi, packet_index=index))
        return estimates

    # ------------------------------------------------------------------
    def _tof_from_omega(self, omega: complex) -> float:
        """Invert Omega(tau) = exp(-j 2 pi f_delta tau), principal branch."""
        angle = np.angle(omega)  # (-pi, pi]
        return float(-angle / (2.0 * np.pi * self._sub_model.subcarrier_spacing_hz))

    def _aoa_from_phi(self, phi: complex) -> Optional[float]:
        """Invert Phi(theta) = exp(-j 2 pi d sin(theta) f / c)."""
        angle = np.angle(phi)
        from repro.constants import SPEED_OF_LIGHT

        sin_theta = -angle * SPEED_OF_LIGHT / (
            2.0
            * np.pi
            * self._sub_model.antenna_spacing_m
            * self._sub_model.carrier_freq_hz
        )
        if abs(sin_theta) > 1.0:
            return None  # outside the visible region: a spurious mode
        return float(np.degrees(np.arcsin(sin_theta)))

    def _path_powers(
        self, csi: np.ndarray, estimates: Sequence[Tuple[float, float]]
    ) -> np.ndarray:
        """Least-squares path powers against the full-array steering matrix."""
        aoas = [a for a, _ in estimates]
        tofs = [t for _, t in estimates]
        a = self.model.steering_matrix(aoas, tofs)
        gains, *_ = np.linalg.lstsq(a, csi.reshape(-1), rcond=None)
        return np.abs(gains) ** 2
