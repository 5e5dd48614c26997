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

Compared to the 2-D MUSIC search, ESPRIT is grid-free: 0.33 ms per
packet against 0.54 ms on office bursts (2-CPU Xeon, 1 BLAS thread).
Two caveats: it is more sensitive to coherent-path residual correlation,
and the automatic pairing requires the ToF eigenvalues to be *distinct* —
two paths at the same delay defeat the diagonalization regardless of
angular separation (the spectral search has no such failure mode).

:class:`EspritEstimator` shares :class:`~repro.core.estimator.JointEstimator`'s
front end through their common base
:class:`~repro.core.estimator.SubspaceEstimator` — the same CSI check,
Algorithm 1, smoothing, and signal subspace from
:func:`~repro.core.music.subspaces` — and differs only after the
eigen-split, so it drops into the pipeline
(``SpotFiConfig(estimation="esprit")``) and the ablation benchmark
compares both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.constants import SPEED_OF_LIGHT
from repro.core.estimator import (
    PacketOutcome,
    PathEstimate,
    SubspaceEstimator,
    prepare_csi_stack,
)
from repro.core.smoothing import smooth_csi_stack
from repro.errors import EstimationError
from repro.obs.trace import NOOP_TRACER, Tracer


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
class EspritEstimator(SubspaceEstimator):
    """Shift-invariance joint (AoA, ToF) estimator.

    The fields are :class:`~repro.core.estimator.SubspaceEstimator`'s;
    of ``music`` only the subspace parameters (eigenvalue threshold or
    MDL, max_paths, forward_backward) are used, the grids are ignored.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        self._selections = _selection_indices(
            self.smoothing.sub_antennas, self.smoothing.sub_subcarriers
        )

    # ------------------------------------------------------------------
    def estimate_stack(
        self,
        csi: Sequence[np.ndarray],
        first_index: int = 0,
        tracer: Tracer = NOOP_TRACER,
    ) -> List[PacketOutcome]:
        """Grid-free (AoA, ToF) estimates for every packet of one AP.

        The front end, smoothing and covariances run over the whole
        stack; the eigen-split and the shift-invariance solve run per
        packet.  Each packet's estimates are sorted by descending path
        power (least-squares amplitude against the estimated steering
        vectors) and equal :meth:`estimate_packet` of that packet alone.
        Everything runs under one ``esprit`` span, which ends with status
        ``error`` when a packet failed.
        """
        with tracer.span("esprit", packets=len(csi)) as span:
            stack, errors = prepare_csi_stack(csi, self.model, self.sanitize)
            outcomes: List[Optional[PacketOutcome]] = list(errors)
            live = [k for k, error in enumerate(errors) if error is None]
            splits = self._eigen_split(smooth_csi_stack(stack, self.smoothing))
            for k, packet, split in zip(live, stack, splits):
                if isinstance(split, EstimationError):
                    outcomes[k] = split
                    continue
                try:
                    outcomes[k] = self._packet_paths(packet, split[0], first_index + k)
                except EstimationError as exc:
                    outcomes[k] = exc
            self._mark_failed(span, outcomes)
            span.set(
                "estimates", sum(len(o) for o in outcomes if isinstance(o, list))
            )
        return outcomes  # type: ignore[return-value]

    def _packet_paths(
        self, csi: np.ndarray, e_signal: np.ndarray, packet_index: int
    ) -> List[PathEstimate]:
        """One packet's paths from its sanitized CSI and signal subspace."""
        # Shift invariance needs J1 E_s full column rank: L cannot exceed
        # the smaller selection's row count nor make pinv ill-posed.
        tau_j1, tau_j2, theta_j1, theta_j2 = self._selections
        e_signal = e_signal[:, : min(len(tau_j1), len(theta_j1)) - 1]

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

        # Invert Omega(tau) = exp(-j 2 pi f_delta tau) on the principal
        # branch, and Phi(theta) = exp(-j 2 pi d sin(theta) f / c); a
        # mode with |sin(theta)| > 1 lies outside the visible region and
        # is spurious.
        sub = self._sub_model
        tofs = -np.angle(tau_eigs) / (2.0 * np.pi * sub.subcarrier_spacing_hz)
        sin_theta = -np.angle(theta_eigs) * SPEED_OF_LIGHT / (
            2.0 * np.pi * sub.antenna_spacing_m * sub.carrier_freq_hz
        )
        visible = ~(np.abs(sin_theta) > 1.0)
        if not visible.any():
            return []
        aoas = np.degrees(np.arcsin(sin_theta[visible]))
        tofs = tofs[visible]
        powers = self._path_powers(csi, aoas, tofs)
        results = [
            PathEstimate(aoa_deg=aoa, tof_s=tof, power=p, packet_index=packet_index)
            for aoa, tof, p in zip(aoas.tolist(), tofs.tolist(), powers.tolist())
        ]
        results.sort(key=lambda e: -e.power)
        return results

    def _path_powers(
        self, csi: np.ndarray, aoas: np.ndarray, tofs: np.ndarray
    ) -> np.ndarray:
        """Least-squares path powers against the full-array steering matrix."""
        a = self.model.steering_matrix(aoas, tofs)
        gains, *_ = np.linalg.lstsq(a, csi.reshape(-1), rcond=None)
        return np.abs(gains) ** 2
