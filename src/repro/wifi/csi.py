"""CSI containers.

The central data structure of the library: a :class:`CsiFrame` is the CSI
matrix of one received packet (paper Eq. 5 — antennas x subcarriers complex
values) plus the per-packet metadata SpotFi's server receives from an AP
(RSSI, timestamp, source address).  A :class:`CsiTrace` is the sequence of
frames one AP collected from one target, which is the unit Algorithm 2
consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.analysis.contracts import contract
from repro.errors import CsiShapeError


@contract(returns="(M,N) complex128")
def validate_csi_matrix(csi: np.ndarray) -> np.ndarray:
    """Validate and canonicalize a CSI matrix.

    Returns a complex128 array of shape (num_antennas, num_subcarriers).
    Raises :class:`CsiShapeError` on anything that is not a 2-D complex
    matrix with at least 2 antennas and 2 subcarriers and no non-finite
    entries.
    """
    arr = np.asarray(csi)
    if arr.ndim != 2:
        raise CsiShapeError(f"CSI must be 2-D (antennas, subcarriers), got shape {arr.shape}")
    if arr.shape[0] < 2 or arr.shape[1] < 2:
        raise CsiShapeError(
            f"CSI needs >= 2 antennas and >= 2 subcarriers, got shape {arr.shape}"
        )
    arr = arr.astype(np.complex128, copy=False)
    # A complex entry is finite exactly when both its parts are.
    if not np.isfinite(arr).all():
        raise CsiShapeError("CSI contains non-finite values")
    return arr


@dataclass(frozen=True)
class CsiFrame:
    """CSI and metadata for a single received packet at one AP.

    Attributes
    ----------
    csi:
        Complex CSI matrix of shape (num_antennas, num_subcarriers),
        exactly the paper's Eq. 5 layout.
    rssi_dbm:
        Received signal strength for this packet, dBm.
    timestamp_s:
        Receive timestamp at the AP (s).  Only ordering matters.
    source:
        Transmitter identifier (MAC address string in a real deployment).
    """

    csi: np.ndarray
    rssi_dbm: float = float("nan")
    timestamp_s: float = 0.0
    source: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "csi", validate_csi_matrix(self.csi))

    @property
    def num_antennas(self) -> int:
        return int(self.csi.shape[0])

    @property
    def num_subcarriers(self) -> int:
        return int(self.csi.shape[1])

    def magnitude_db(self) -> np.ndarray:
        """Per-entry magnitude in dB (20*log10|csi|), -inf-safe."""
        mag = np.abs(self.csi)
        with np.errstate(divide="ignore"):
            return 20.0 * np.log10(mag)

    def phase(self) -> np.ndarray:
        """Per-entry wrapped phase in radians."""
        return np.angle(self.csi)

    def unwrapped_phase(self) -> np.ndarray:
        """Phase unwrapped independently along each antenna's subcarriers.

        This is the psi_i(m, n) of paper Algorithm 1.
        """
        return np.unwrap(np.angle(self.csi), axis=1)

    def stacked(self) -> np.ndarray:
        """CSI flattened antenna-major into the (M*N,) vector of Fig. 4 (left)."""
        return self.csi.reshape(-1)


@dataclass
class CsiTrace:
    """An ordered sequence of :class:`CsiFrame` from one target at one AP."""

    frames: List[CsiFrame] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.frames = list(self.frames)
        shapes = {f.csi.shape for f in self.frames}
        if len(shapes) > 1:
            raise CsiShapeError(f"trace mixes CSI shapes: {sorted(shapes)}")

    def __len__(self) -> int:
        return len(self.frames)

    def __iter__(self) -> Iterator[CsiFrame]:
        return iter(self.frames)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return CsiTrace(self.frames[index])
        return self.frames[index]

    def append(self, frame: CsiFrame) -> None:
        if self.frames and frame.csi.shape != self.frames[0].csi.shape:
            raise CsiShapeError(
                f"frame shape {frame.csi.shape} does not match trace shape "
                f"{self.frames[0].csi.shape}"
            )
        self.frames.append(frame)

    @property
    def num_antennas(self) -> int:
        self._require_nonempty()
        return self.frames[0].num_antennas

    @property
    def num_subcarriers(self) -> int:
        self._require_nonempty()
        return self.frames[0].num_subcarriers

    def csi_array(self) -> np.ndarray:
        """Stack all frames into a (num_frames, M, N) complex array."""
        self._require_nonempty()
        return np.stack([f.csi for f in self.frames])

    def rssi_dbm(self) -> np.ndarray:
        """Per-frame RSSI values (dBm)."""
        return np.array([f.rssi_dbm for f in self.frames], dtype=float)

    def median_rssi_dbm(self) -> float:
        """Median RSSI over the trace; NaN if no finite RSSIs."""
        vals = self.rssi_dbm()
        vals = vals[np.isfinite(vals)]
        if vals.size == 0:
            return float("nan")
        return float(np.median(vals))

    def windows(self, size: int, step: Optional[int] = None) -> Iterator["CsiTrace"]:
        """Yield consecutive sub-traces of ``size`` frames.

        The paper's server "chops up the CSI traces into groups of forty
        consecutive CSI measurements" (Sec. 4.3.1); this implements that
        chopping.  A trailing partial window is dropped.
        """
        if size < 1:
            raise ValueError(f"window size must be >= 1, got {size}")
        step = size if step is None else step
        if step < 1:
            raise ValueError(f"window step must be >= 1, got {step}")
        for start in range(0, len(self.frames) - size + 1, step):
            yield CsiTrace(self.frames[start : start + size])

    @staticmethod
    def from_arrays(
        csi: np.ndarray,
        rssi_dbm: Optional[Sequence[float]] = None,
        timestamps_s: Optional[Sequence[float]] = None,
        source: str = "",
    ) -> "CsiTrace":
        """Build a trace from a (num_frames, M, N) CSI array and metadata."""
        csi = np.asarray(csi)
        if csi.ndim != 3:
            raise CsiShapeError(
                f"expected (frames, antennas, subcarriers) array, got shape {csi.shape}"
            )
        num = csi.shape[0]
        if rssi_dbm is None:
            rssi_dbm = [float("nan")] * num
        if timestamps_s is None:
            timestamps_s = [float(i) for i in range(num)]
        if len(rssi_dbm) != num or len(timestamps_s) != num:
            raise CsiShapeError("metadata length does not match frame count")
        frames = [
            CsiFrame(
                csi=csi[i],
                rssi_dbm=float(rssi_dbm[i]),
                timestamp_s=float(timestamps_s[i]),
                source=source,
            )
            for i in range(num)
        ]
        return CsiTrace(frames)

    def _require_nonempty(self) -> None:
        if not self.frames:
            raise CsiShapeError("operation requires a non-empty trace")


def merge_traces(traces: Iterable[CsiTrace]) -> CsiTrace:
    """Concatenate traces (same shape) into one, preserving order."""
    merged = CsiTrace()
    for trace in traces:
        for frame in trace:
            merged.append(frame)
    return merged
