"""Receiver impairments: the nuisance effects SpotFi must survive.

The paper's Sec. 3.2 identifies the impairments that corrupt ToF estimates
on commodity WiFi:

* **STO** (sampling time offset): sender and receiver sampling clocks are
  unsynchronized, adding a common delay to every path's ToF.  Constant per
  packet, same across all antennas of one NIC (shared sampling clock).
* **SFO** (sampling frequency offset): the clocks also run at slightly
  different rates, so the STO *drifts* from packet to packet.
* **Packet detection delay**: the receiver's packet-start detector fires a
  random number of samples late, adding per-packet jitter to the delay.
* **AWGN**: thermal noise on each CSI entry.
* **Quantization**: 8-bit CSI components (see `repro.wifi.quantization`).

:class:`ImpairmentModel` holds the distributional parameters;
:class:`ImpairmentState` is one packet's realized nuisance values so tests
and benchmarks can inspect exactly what was injected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.wifi.quantization import QuantizationModel


@dataclass(frozen=True)
class ImpairmentState:
    """Realized impairments for one packet.

    Attributes
    ----------
    sto_s:
        Total sampling-time offset applied to this packet (s), including
        SFO drift and detection delay.
    cfo_phase_rad:
        Common random phase rotation (carrier/residual CFO), applied to
        every CSI entry identically.
    snr_db:
        Per-entry AWGN SNR used for this packet.
    """

    sto_s: float
    cfo_phase_rad: float
    snr_db: float


@dataclass
class ImpairmentModel:
    """Distributional model of per-packet impairments.

    Attributes
    ----------
    base_sto_s:
        Mean sampling time offset of the association (s).  Tens of ns to a
        few hundred ns is typical; the default ~ 50 ns keeps estimated ToFs
        within the Intel 5300 ToF ambiguity window (800 ns).
    sfo_drift_s_per_packet:
        Deterministic STO drift between consecutive packets due to SFO.
    sto_jitter_s:
        Std-dev of random per-packet detection delay jitter (s).
    snr_db:
        Mean per-entry AWGN SNR (dB).
    snr_jitter_db:
        Std-dev of per-packet SNR variation (dB).
    random_cfo_phase:
        Whether to rotate each packet's CSI by a random common phase
        (residual CFO after the card's correction).  This destroys
        absolute phase, as in real measurements.
    quantizer:
        8-bit CSI quantizer, or None to disable quantization.
    """

    base_sto_s: float = 50e-9
    sfo_drift_s_per_packet: float = 0.1e-9
    sto_jitter_s: float = 3e-9
    snr_db: float = 25.0
    snr_jitter_db: float = 2.0
    random_cfo_phase: bool = True
    quantizer: Optional[QuantizationModel] = field(default_factory=QuantizationModel)

    def __post_init__(self) -> None:
        if self.base_sto_s < 0:
            raise ConfigurationError(f"base STO must be >= 0, got {self.base_sto_s}")
        if self.sto_jitter_s < 0:
            raise ConfigurationError(
                f"STO jitter must be >= 0, got {self.sto_jitter_s}"
            )

    def draw_state(self, packet_index: int, rng: np.random.Generator) -> ImpairmentState:
        """Realize the impairments for packet number ``packet_index``."""
        sto = (
            self.base_sto_s
            + packet_index * self.sfo_drift_s_per_packet
            + (rng.normal(0.0, self.sto_jitter_s) if self.sto_jitter_s > 0 else 0.0)
        )
        sto = max(0.0, sto)
        cfo_phase = rng.uniform(-np.pi, np.pi) if self.random_cfo_phase else 0.0
        snr = self.snr_db + (
            rng.normal(0.0, self.snr_jitter_db) if self.snr_jitter_db > 0 else 0.0
        )
        return ImpairmentState(sto_s=sto, cfo_phase_rad=cfo_phase, snr_db=snr)

    def apply(
        self,
        csi: np.ndarray,
        state: ImpairmentState,
        subcarrier_spacing_hz: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Apply ``state``'s impairments to a clean CSI matrix.

        The STO multiplies subcarrier n (0-based) by
        ``exp(-j 2 pi f_delta n sto)`` — identical across antennas, the
        structure Algorithm 1 exploits.  AWGN is scaled relative to the
        mean CSI power; quantization is applied last.  This is the
        one-packet case of :meth:`rotate`, :meth:`noise_std` and
        :meth:`finish`, which a trace runs over all its packets at once.
        """
        csi = np.asarray(csi, dtype=np.complex128)
        stack = self.rotate(csi[None], [state], subcarrier_spacing_hz)
        noisy, noise_std = self.noise_std(stack, [state])
        normals = rng.standard_normal((1, 2) + csi.shape) if noisy[0] else None
        return self.finish(stack, noisy, noise_std, normals)[0]

    def rotate(
        self,
        csi: np.ndarray,
        states: Sequence[ImpairmentState],
        subcarrier_spacing_hz: float,
    ) -> np.ndarray:
        """Each packet's STO ramp and CFO rotation: a ``(K, M, N)`` stack.

        ``csi`` is the clean ``(K, M, N)`` stack, or one ``(M, N)`` matrix
        shared by all K packets of ``states``.  A packet whose CFO phase
        is 0 is not rotated at all (a product with ``exp(0j)`` could flip
        the sign of a zero).
        """
        sto = np.array([s.sto_s for s in states], dtype=float)
        cfo = np.array([s.cfo_phase_rad for s in states], dtype=float)
        n = np.arange(np.shape(csi)[-1])
        ramps = np.exp(-2j * np.pi * subcarrier_spacing_hz * n * sto[:, None])
        out = csi * ramps[:, None, :]
        rotated = cfo != 0
        out[rotated] *= np.exp(1j * cfo[rotated])[:, None, None]
        return out

    def noise_std(
        self, stack: np.ndarray, states: Sequence[ImpairmentState]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Which packets of a rotated stack draw AWGN, and its std-dev.

        Returns ``(noisy, std)``.  A packet draws noise when its SNR is
        finite and its mean power is positive; the noise power is that
        mean power times ``10^(-snr/10)``, split evenly between the real
        and imaginary parts.
        """
        power = np.mean(np.abs(stack) ** 2, axis=tuple(range(1, stack.ndim)))
        noisy = np.isfinite([s.snr_db for s in states]) & (power > 0)
        # Python's scalar pow, one per packet: numpy's array power rounds
        # differently in the last bit for some exponents.
        ratio = [10.0 ** (-s.snr_db / 10.0) if n else 0.0 for s, n in zip(states, noisy)]
        return noisy, np.sqrt(power * ratio / 2.0)

    def finish(
        self,
        stack: np.ndarray,
        noisy: np.ndarray,
        noise_std: np.ndarray,
        normals: Optional[np.ndarray],
    ) -> np.ndarray:
        """Add each noisy packet's AWGN to a rotated stack, then quantize.

        ``normals`` holds two standard-normal draws shaped like one packet
        for each packet with ``noisy`` set, in packet order, real part
        first (None when no packet is noisy).  ``0.0 + std * z`` is what
        ``rng.normal(0.0, std)`` computes from the same draw ``z``.
        """
        if noisy.any():
            std = noise_std[noisy].reshape((-1,) + (1,) * (stack.ndim - 1))
            noise = (0.0 + std * normals[:, 0]) + 1j * (0.0 + std * normals[:, 1])
            stack = stack.copy()
            stack[noisy] = stack[noisy] + noise
        if self.quantizer is not None:
            stack = self.quantizer.quantize_stack(stack)
        return stack


def ideal_impairments() -> ImpairmentModel:
    """An impairment model that does nothing (clean CSI, for unit tests)."""
    return ImpairmentModel(
        base_sto_s=0.0,
        sfo_drift_s_per_packet=0.0,
        sto_jitter_s=0.0,
        snr_db=float("inf"),
        snr_jitter_db=0.0,
        random_cfo_phase=False,
        quantizer=None,
    )
