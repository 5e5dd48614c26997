"""Receiver-chain phase offsets.

Real multi-antenna NICs have unknown, static phase offsets between their
receive chains (cable lengths, mixers): antenna m's CSI is rotated by a
constant ``exp(j phi_m)`` that has nothing to do with geometry.  Left
uncorrected, the offsets translate every AoA estimate by an arbitrary
amount — which is why AoA systems on commodity cards need per-AP phase
calibration (the problem Phaser [8], the paper's ArrayTrack substrate,
exists to solve; SpotFi's experiments rely on the same one-time
calibration implicitly).

This module models the offsets in the simulator; `repro.calibration`
estimates and removes them from reference measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ChainOffsets:
    """Static per-antenna phase offsets of one NIC's receive chains.

    Attributes
    ----------
    offsets_rad:
        One phase per antenna; the first antenna is the reference and is
        conventionally 0 (only differences are observable).
    """

    offsets_rad: tuple

    def __post_init__(self) -> None:
        offs = tuple(float(v) for v in self.offsets_rad)
        if len(offs) < 1:
            raise ConfigurationError("need at least one antenna offset")
        object.__setattr__(self, "offsets_rad", offs)

    @property
    def num_antennas(self) -> int:
        return len(self.offsets_rad)

    @staticmethod
    def identity(num_antennas: int) -> "ChainOffsets":
        """No offsets (an ideally calibrated card)."""
        return ChainOffsets(offsets_rad=(0.0,) * num_antennas)

    @staticmethod
    def random(num_antennas: int, rng: np.random.Generator) -> "ChainOffsets":
        """Uniformly random offsets with antenna 0 as the reference."""
        offsets = rng.uniform(-np.pi, np.pi, size=num_antennas)
        offsets[0] = 0.0
        return ChainOffsets(offsets_rad=tuple(offsets))

    def referenced(self) -> "ChainOffsets":
        """Equivalent offsets with antenna 0 rotated to zero."""
        base = self.offsets_rad[0]
        return ChainOffsets(
            offsets_rad=tuple(
                float(np.angle(np.exp(1j * (v - base)))) for v in self.offsets_rad
            )
        )

    def apply(self, csi: np.ndarray) -> np.ndarray:
        """Rotate each antenna row of a CSI matrix by its chain offset.

        ``csi`` is one ``(M, N)`` matrix or a ``(K, M, N)`` packet stack.
        """
        csi = np.asarray(csi, dtype=np.complex128)
        if csi.ndim < 2 or csi.shape[-2] != self.num_antennas:
            raise ConfigurationError(
                f"CSI of shape {csi.shape} has no {self.num_antennas}-antenna "
                f"rows for these offsets"
            )
        rot = np.exp(1j * np.asarray(self.offsets_rad))
        return csi * rot[:, None]

    def correct(self, csi: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`apply` (what a calibrated receiver computes)."""
        csi = np.asarray(csi, dtype=np.complex128)
        if csi.shape[0] != self.num_antennas:
            raise ConfigurationError(
                f"CSI has {csi.shape[0]} antennas, offsets describe "
                f"{self.num_antennas}"
            )
        rot = np.exp(-1j * np.asarray(self.offsets_rad))
        return csi * rot[:, None]

    def compose(self, other: "ChainOffsets") -> "ChainOffsets":
        """Offsets equivalent to applying ``self`` then ``other``."""
        if other.num_antennas != self.num_antennas:
            raise ConfigurationError("cannot compose offsets of different sizes")
        summed = np.asarray(self.offsets_rad) + np.asarray(other.offsets_rad)
        return ChainOffsets(
            offsets_rad=tuple(float(np.angle(np.exp(1j * v))) for v in summed)
        )

    def max_error_to(self, other: "ChainOffsets") -> float:
        """Largest per-antenna phase discrepancy (rad), reference-aligned."""
        a = self.referenced().offsets_rad
        b = other.referenced().offsets_rad
        if len(a) != len(b):
            raise ConfigurationError("cannot compare offsets of different sizes")
        return float(
            max(abs(np.angle(np.exp(1j * (x - y)))) for x, y in zip(a, b))
        )
