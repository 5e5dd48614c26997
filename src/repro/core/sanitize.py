"""ToF sanitization — paper Algorithm 1 (Sec. 3.2.2).

The sampling time offset (STO) between the unsynchronized target and AP
adds the *same* delay to every path, which appears in the CSI phase as a
term linear in subcarrier index and identical across antennas (all receive
chains share one sampling clock).  Because the STO drifts packet-to-packet
(SFO, detection delay), raw ToF estimates have large spurious variance.

Algorithm 1 removes it: fit a single straight line (common slope and
intercept) to the unwrapped phase over *all* antennas and subcarriers,
interpret the slope as ``-2 pi f_delta tau_sto``, and subtract the slope
term.  The result is invariant to the packet's STO (two packets differing
only in STO sanitize to identical phases), which our property tests verify.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.analysis.contracts import contract
from repro.core.indexcache import index_vector
from repro.wifi.csi import CsiFrame, validate_csi_matrix


@contract(psi="(K,M,N)")
def fit_common_slopes(psi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Algorithm 1 line 1 for each packet of a ``(K, M, N)`` phase stack.

    Solves, per packet, for the single (rho, beta) minimizing
    ``sum_{m,n} (psi(m,n) + 2 pi f_delta (n-1) rho + beta)^2`` — i.e. an
    ordinary least-squares line ``psi ~ slope * (n-1) + intercept``
    pooled over antennas.  Returns ``(slopes, intercepts)``, each of
    shape (K,), in radians per subcarrier step and radians.  Each
    packet's reductions run over its own flattened ``M * N`` row, so a
    packet's fit does not depend on the rest of the stack.
    """
    psi = np.asarray(psi, dtype=float)
    if psi.ndim != 3:
        raise ValueError(
            f"phase must be 3-D (packets, antennas, subcarriers), got {psi.shape}"
        )
    num_packets, num_antennas, num_subcarriers = psi.shape
    n = index_vector(num_subcarriers, dtype="float64")
    # Closed-form OLS pooled over antennas: identical n-design for each row.
    n_mean = n.mean()
    rows = psi.reshape(num_packets, num_antennas * num_subcarriers)
    psi_mean = rows.mean(axis=1)
    n_var = float(np.sum((n - n_mean) ** 2)) * num_antennas
    centred = (n - n_mean)[None, None, :] * (psi - psi_mean[:, None, None])
    cov = centred.reshape(rows.shape).sum(axis=1)
    slopes = cov / n_var
    return slopes, psi_mean - slopes * n_mean


@contract(psi="(M,N)")
def fit_common_slope(psi: np.ndarray) -> Tuple[float, float]:
    """Least-squares common (slope, intercept) of one packet's phase.

    The one-packet case of :func:`fit_common_slopes`.
    """
    psi = np.asarray(psi, dtype=float)
    if psi.ndim != 2:
        raise ValueError(f"phase must be 2-D (antennas, subcarriers), got {psi.shape}")
    slopes, intercepts = fit_common_slopes(psi[None])
    return float(slopes[0]), float(intercepts[0])


@contract(csi="(M,N)", subcarrier_spacing_hz="float", returns="float")
def estimate_sto(csi: np.ndarray, subcarrier_spacing_hz: float) -> float:
    """Estimated STO (s) from a CSI matrix's common phase slope.

    This is the ``tau_hat_{s,i}`` of Algorithm 1: the common linear phase
    slope divided by ``-2 pi f_delta``.  Note it absorbs the (unknowable)
    bulk ToF of the channel as well — which is exactly why the paper never
    uses sanitized ToFs for ranging.
    """
    psi = np.unwrap(np.angle(validate_csi_matrix(csi)), axis=1)
    slope, _ = fit_common_slope(psi)
    return -slope / (2.0 * np.pi * subcarrier_spacing_hz)


@contract(psi="(K,M,N)", returns="(K,M,N) float64")
def sanitize_phase_stack(psi: np.ndarray) -> np.ndarray:
    """Algorithm 1 on a ``(K, M, N)`` unwrapped phase stack, per packet.

    Only the slope term is subtracted (the paper's line 2 subtracts the
    STO-induced phase, not the intercept), so per-antenna phase offsets —
    which carry the AoA information — are preserved.
    """
    psi = np.asarray(psi, dtype=float)
    slopes, _ = fit_common_slopes(psi)
    n = index_vector(psi.shape[2], dtype="float64")
    return psi - slopes[:, None, None] * n[None, None, :]


@contract(psi="(M,N)", returns="(M,N) float64")
def sanitize_phase(psi: np.ndarray) -> np.ndarray:
    """Algorithm 1 on one unwrapped phase matrix: remove the common slope.

    The one-packet case of :func:`sanitize_phase_stack`.
    """
    return sanitize_phase_stack(np.asarray(psi, dtype=float)[None])[0]


@contract(csi="(K,M,N)", returns="(K,M,N) complex128")
def sanitize_csi_stack(csi: np.ndarray) -> np.ndarray:
    """Apply Algorithm 1 to each packet of a validated ``(K, M, N)`` stack.

    One unwrap over the last axis and one slope fit per packet
    (:func:`fit_common_slopes`); packet ``k`` of the result is
    :func:`sanitize_csi` of ``csi[k]``, element for element.
    """
    csi = np.asarray(csi, dtype=np.complex128)
    psi = np.unwrap(np.angle(csi), axis=-1)
    return np.abs(csi) * np.exp(1j * sanitize_phase_stack(psi))


@contract(csi="(M,N)", returns="(M,N) complex128")
def sanitize_csi(csi: np.ndarray) -> np.ndarray:
    """Apply Algorithm 1 to a complex CSI matrix.

    Magnitudes are preserved; the phase is replaced by the sanitized
    (common-slope-removed) unwrapped phase.  The returned CSI is what
    SpotFi's super-resolution step consumes (Alg. 2 line 3 precedes
    line 4).  The one-packet case of :func:`sanitize_csi_stack`.
    """
    return sanitize_csi_stack(validate_csi_matrix(csi)[None])[0]


def sanitize_frame(frame: CsiFrame) -> CsiFrame:
    """Sanitized copy of a :class:`CsiFrame` (metadata preserved)."""
    return CsiFrame(
        csi=sanitize_csi(frame.csi),
        rssi_dbm=frame.rssi_dbm,
        timestamp_s=frame.timestamp_s,
        source=frame.source,
    )


@contract(csi_frames="(P,M,N)", returns="float")
def phase_dispersion_across_packets(csi_frames: np.ndarray) -> float:
    """RMS inter-packet deviation of the subcarrier phase *slope* (radians).

    Diagnostic used by the Fig. 5(a)/(b) benchmark: large before
    sanitization (each packet's STO tilts the phase differently), near the
    noise floor after.  The metric works on wrapped adjacent-subcarrier
    phase steps, so it is immune to the global CFO rotation (which cancels
    in differences) and to unwrap branch flips at deep fading nulls; the
    per-step circular mean over packets is the reference.
    """
    frames = np.asarray(csi_frames)
    if frames.ndim != 3:
        raise ValueError(f"expected (packets, antennas, subcarriers), got {frames.shape}")
    steps = np.angle(frames[:, :, 1:] * np.conj(frames[:, :, :-1]))  # (P, M, N-1)
    reference = np.angle(np.mean(np.exp(1j * steps), axis=0, keepdims=True))
    deviation = np.angle(np.exp(1j * (steps - reference)))
    return float(np.sqrt(np.mean(deviation**2)))
