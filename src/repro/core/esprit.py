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

Compared to the 2-D MUSIC search, ESPRIT is grid-free: 0.55 ms per
packet against 1.02 ms on the same office bursts (sums of per-AP minima,
one process, 2-CPU Xeon, 1 BLAS thread; EXPERIMENTS.md "Stacked ESPRIT
tail").  Two caveats: it is more sensitive to coherent-path residual correlation,
and the automatic pairing requires the ToF eigenvalues to be *distinct* —
two paths at the same delay defeat the diagonalization regardless of
angular separation (the spectral search has no such failure mode).

:class:`EspritEstimator` shares :class:`~repro.core.estimator.JointEstimator`'s
front end through their common base
:class:`~repro.core.estimator.SubspaceEstimator` — the same CSI check,
Algorithm 1, smoothing, and signal subspaces from
:func:`~repro.core.music.eigen_splits` — and differs only after the
eigen-split, so it drops into the pipeline
(``SpotFiConfig(estimation="esprit")``) and the ablation benchmark
compares both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

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


#: One packet's visible modes from a rank group: its AoAs (deg) and ToFs
#: (s), or the :class:`EstimationError` that stopped it.
Modes = Union[Tuple[List[float], List[float]], EstimationError]


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

        The front end, smoothing, covariances and eigen-split run over the
        whole stack.  The shift-invariance solve runs once per group of
        packets that share a signal rank L (:meth:`_modes`), and one
        steering matrix covers every visible path of the AP; only the
        least-squares fits, which numpy's public API takes one matrix at
        a time, run per packet.  Each packet's estimates are sorted by
        descending path power (least-squares amplitude against the
        estimated steering vectors) and equal :meth:`estimate_packet` of
        that packet alone.  Everything runs under one ``esprit`` span,
        which ends with status ``error`` when a packet failed.
        """
        with tracer.span("esprit", packets=len(csi)) as span:
            stack, errors = prepare_csi_stack(csi, self.model, self.sanitize)
            outcomes: List[Optional[PacketOutcome]] = list(errors)
            live = [k for k, error in enumerate(errors) if error is None]
            splits = self._eigen_split(smooth_csi_stack(stack, self.smoothing))
            # Shift invariance needs J1 E_s full column rank: L cannot
            # exceed the smaller selection's row count nor make the
            # least-squares solve ill-posed.
            tau_j1, _, theta_j1, _ = self._selections
            limit = min(len(tau_j1), len(theta_j1)) - 1
            modes: Dict[int, Modes] = {}
            groups: Dict[int, List[int]] = {}
            for i, split in enumerate(splits):
                if isinstance(split, EstimationError):
                    modes[i] = split
                else:
                    groups.setdefault(min(split[0].shape[1], limit), []).append(i)
            for rank, members in groups.items():
                e_signals = [splits[i][0][:, :rank] for i in members]
                modes.update(zip(members, self._modes(e_signals)))
            aoas: List[float] = []
            tofs: List[float] = []
            for i in range(len(live)):
                if not isinstance(modes[i], EstimationError):
                    aoas.extend(modes[i][0])
                    tofs.extend(modes[i][1])
            steering = self.model.steering_matrix(aoas, tofs)
            start = 0
            for i, (k, packet) in enumerate(zip(live, stack)):
                found = modes[i]
                if isinstance(found, EstimationError):
                    outcomes[k] = found
                    continue
                stop = start + len(found[0])
                outcomes[k] = self._estimates(
                    packet, steering[:, start:stop], *found, first_index + k
                )
                start = stop
            self._mark_failed(span, outcomes)
            span.set(
                "estimates", sum(len(o) for o in outcomes if isinstance(o, list))
            )
        return outcomes  # type: ignore[return-value]

    def _modes(self, e_signals: Sequence[np.ndarray]) -> List[Modes]:
        """Visible ``(aoas, tofs)`` of each packet in a group of equal rank L.

        ``e_signals`` holds the (S, L) signal subspaces of g packets.  The
        invariance equations are solved per packet (``lstsq`` is 2-D
        only); the ToF operators are diagonalized by one stacked ``eig``
        and ``inv``, and the AoA operators are read in the same bases
        (automatic pairing) by one stacked product.  When a stacked call
        raises, the group re-runs one packet at a time, so only a packet
        that fails on its own gets an :class:`EstimationError`.  The
        stacked LAPACK calls run the same routine per matrix and the
        matmul the same BLAS call, so every packet's modes equal its
        g = 1 call bit for bit.
        """
        tau_j1, tau_j2, theta_j1, theta_j2 = self._selections
        rank = e_signals[0].shape[1]
        f_tau = np.empty((len(e_signals), rank, rank), dtype=np.complex128)
        f_theta = np.empty_like(f_tau)
        try:
            for k, e in enumerate(e_signals):
                f_tau[k] = np.linalg.lstsq(e[tau_j1], e[tau_j2], rcond=None)[0]
                f_theta[k] = np.linalg.lstsq(e[theta_j1], e[theta_j2], rcond=None)[0]
            # Diagonalize the ToF operators; read the AoA operators in the
            # same bases.
            tau_eigs, t = np.linalg.eig(f_tau)
        except np.linalg.LinAlgError as exc:
            return self._one_by_one(e_signals, f"ESPRIT solve failed: {exc}")
        try:
            t_inv = np.linalg.inv(t)
        except np.linalg.LinAlgError:
            return self._one_by_one(
                e_signals, "ESPRIT pairing failed: defective ToF operator"
            )
        theta_eigs = np.diagonal(t_inv @ f_theta @ t, axis1=1, axis2=2)

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
        aoas = np.degrees(np.arcsin(sin_theta[visible])).tolist()
        tofs = tofs[visible].tolist()
        found: List[Modes] = []
        start = 0
        for count in np.count_nonzero(visible, axis=1).tolist():
            found.append((aoas[start : start + count], tofs[start : start + count]))
            start += count
        return found

    def _one_by_one(self, e_signals: Sequence[np.ndarray], failure: str) -> List[Modes]:
        """:meth:`_modes` per packet after a stacked call raised ``failure``."""
        if len(e_signals) == 1:
            return [EstimationError(failure)]
        return [found for e in e_signals for found in self._modes([e])]

    @staticmethod
    def _estimates(
        csi: np.ndarray,
        steering: np.ndarray,
        aoas: List[float],
        tofs: List[float],
        packet_index: int,
    ) -> PacketOutcome:
        """One packet's paths, strongest first, powers fitted to ``steering``.

        The path powers are least-squares amplitudes of the packet's CSI
        against the full-array steering columns of its visible modes.
        """
        if not aoas:
            return []
        try:
            gains = np.linalg.lstsq(steering, csi.reshape(-1), rcond=None)[0]
        except np.linalg.LinAlgError as exc:
            return EstimationError(f"ESPRIT path powers failed: {exc}")
        powers = (np.abs(gains) ** 2).tolist()
        results = [
            PathEstimate(aoa_deg=aoa, tof_s=tof, power=p, packet_index=packet_index)
            for aoa, tof, p in zip(aoas, tofs, powers)
        ]
        results.sort(key=lambda e: -e.power)
        return results
