"""Intel 5300 CSI quantization model.

The paper (Sec. 4.1) notes that "the CSI information is quantized, i.e.,
each of real and imaginary parts of CSI for every subcarrier is represented
using 8 bits."  The firmware scales each packet's CSI matrix so the largest
component fits the signed 8-bit range, then rounds.  This module reproduces
that per-packet scale-and-round so the synthetic CSI carries the same
quantization noise floor the real system fights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class QuantizationModel:
    """Per-packet scale-and-round quantizer for complex CSI.

    Attributes
    ----------
    num_bits:
        Bits per real/imaginary component (Intel 5300: 8).
    headroom:
        Fraction of full scale the largest component is scaled to, < 1 to
        mimic the firmware leaving headroom before clipping.
    """

    num_bits: int = 8
    headroom: float = 0.9

    def __post_init__(self) -> None:
        if not 2 <= self.num_bits <= 16:
            raise ConfigurationError(f"num_bits must be in [2, 16], got {self.num_bits}")
        if not 0.0 < self.headroom <= 1.0:
            raise ConfigurationError(f"headroom must be in (0, 1], got {self.headroom}")

    @property
    def max_level(self) -> int:
        """Largest representable signed integer component value."""
        return 2 ** (self.num_bits - 1) - 1

    def quantize(self, csi: np.ndarray) -> np.ndarray:
        """Quantize a complex CSI array, returning the dequantized complex values.

        The per-packet scale factor is chosen from the array's largest
        real/imaginary component; the returned array is in the original
        units (quantize-then-rescale), so callers can use it as a drop-in
        noisy version of the input.  An all-zero input is returned as-is.
        This is :meth:`quantize_stack` for a stack of one packet.
        """
        arr = np.asarray(csi, dtype=np.complex128)
        return self.quantize_stack(arr[None])[0]

    def quantize_stack(self, stack: np.ndarray) -> np.ndarray:
        """:meth:`quantize` applied to each packet of ``stack`` (leading axis).

        Each packet gets its own scale, computed exactly as for that
        packet alone, so a packet's result does not depend on its stack.
        """
        stack = np.asarray(stack, dtype=np.complex128)
        ints, scale, scaled = self._levels(stack)
        return np.where(scaled, ints / scale, stack)

    def quantize_to_ints(self, csi: np.ndarray) -> "tuple[np.ndarray, float]":
        """Quantize to integer components, returning ``(ints, scale)``.

        ``ints`` is a complex array whose real/imag parts are integers in
        the signed ``num_bits`` range; dividing by ``scale`` recovers the
        dequantized CSI.  This is the representation the csitool trace
        writer uses.
        """
        arr = np.asarray(csi, dtype=np.complex128)
        ints, scale, scaled = self._levels(arr[None])
        if not scaled.item():
            return arr.copy(), 1.0
        return ints[0], scale.flat[0]

    def _levels(
        self, stack: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Per packet of ``stack``: integer components, scale, and whether scaled.

        Returns ``(ints, scale, scaled)``, the last two shaped to broadcast
        against ``stack``.  A packet whose scale is not finite (zero or
        denormal input) is not scaled: its scale reads 1 and its ``ints``
        are meaningless.
        """
        packets = (len(stack),) + (1,) * (stack.ndim - 1)
        # Quantization is defined component-wise on re/im; both halves are
        # processed symmetrically, nothing is discarded.
        parts = np.stack([stack.real, stack.imag])  # repro: noqa REP012
        peaks = np.abs(parts).reshape(2, len(stack), -1).max(axis=2, initial=0.0)
        # The builtin max(re_peak, im_peak): a NaN imaginary peak is skipped.
        peak = np.where(peaks[1] > peaks[0], peaks[1], peaks[0])
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            scale = self.max_level * self.headroom / peak
        scaled = np.isfinite(scale).reshape(packets)
        scale = np.where(scaled, scale.reshape(packets), 1.0)
        q_real, q_imag = np.clip(np.round(parts * scale), -self.max_level - 1, self.max_level)
        return q_real + 1j * q_imag, scale, scaled

    def quantization_snr_db(self, csi: np.ndarray) -> float:
        """Empirical SNR (dB) of the quantized representation of ``csi``."""
        arr = np.asarray(csi, dtype=np.complex128)
        err = self.quantize(arr) - arr
        signal = float(np.mean(np.abs(arr) ** 2))
        noise = float(np.mean(np.abs(err) ** 2))
        if noise <= 0.0:
            return float("inf")
        return 10.0 * np.log10(signal / noise)
