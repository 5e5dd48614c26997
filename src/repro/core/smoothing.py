"""Smoothed CSI matrix construction (paper Fig. 4).

SpotFi's "mathematical trick": slide a fixed sensor subarray (a block of
``sub_antennas`` consecutive antennas x ``sub_subcarriers`` consecutive
subcarriers) over the full M x N CSI matrix; each placement's CSI, stacked
antenna-major into a column, is a linear combination of the *same* steering
vectors (the subarray's) with placement-dependent gains.  Collecting all
placements as columns yields the smoothed matrix on which MUSIC applies.

For the Intel 5300 defaults (M=3, N=30, subarray 2 x 15) this is exactly
the paper's 30 x 30 smoothed CSI matrix: 16 subcarrier shifts x 2 antenna
shifts = 32 placements... the paper counts 30; we expose the full set of
placements (antenna shifts x subcarrier shifts) and the default config
reproduces the paper's 30 x 30 shape by using 15 subcarrier shifts
(see :class:`SmoothingConfig`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.contracts import contract
from repro.core.indexcache import smoothing_index
from repro.errors import ConfigurationError, CsiShapeError
from repro.wifi.csi import validate_csi_matrix


@dataclass(frozen=True)
class SmoothingConfig:
    """Shape of the sliding sensor subarray.

    Attributes
    ----------
    sub_antennas:
        Antennas per subarray (paper: 2 of 3).
    sub_subcarriers:
        Subcarriers per subarray (paper: 15 of 30).
    max_subcarrier_shifts:
        Cap on the number of subcarrier shifts used (0 = use all
        available).  The paper's Fig. 4 uses 15 subcarrier shifts with 2
        antenna shifts for a 30 x 30 matrix; all 16 available shifts would
        give 30 x 32, which works identically — the cap exists to
        reproduce the paper's exact construction.
    """

    sub_antennas: int = 2
    sub_subcarriers: int = 15
    max_subcarrier_shifts: int = 15

    def __post_init__(self) -> None:
        if self.sub_antennas < 1 or self.sub_subcarriers < 2:
            raise ConfigurationError(
                "subarray needs >= 1 antenna and >= 2 subcarriers, got "
                f"({self.sub_antennas}, {self.sub_subcarriers})"
            )
        if self.max_subcarrier_shifts < 0:
            raise ConfigurationError("max_subcarrier_shifts must be >= 0")

    @property
    def sensors_per_subarray(self) -> int:
        """Rows of the smoothed matrix."""
        return self.sub_antennas * self.sub_subcarriers

    def num_shifts(self, num_antennas: int, num_subcarriers: int) -> "tuple[int, int]":
        """(antenna shifts, subcarrier shifts) available on an M x N matrix."""
        ant = num_antennas - self.sub_antennas + 1
        sub = num_subcarriers - self.sub_subcarriers + 1
        if ant < 1 or sub < 1:
            raise CsiShapeError(
                f"subarray ({self.sub_antennas} x {self.sub_subcarriers}) does not "
                f"fit in CSI of shape ({num_antennas} x {num_subcarriers})"
            )
        if self.max_subcarrier_shifts:
            sub = min(sub, self.max_subcarrier_shifts)
        return ant, sub

    def num_columns(self, num_antennas: int, num_subcarriers: int) -> int:
        """Columns of the smoothed matrix (number of subarray placements)."""
        ant, sub = self.num_shifts(num_antennas, num_subcarriers)
        return ant * sub


#: The paper's Intel 5300 configuration: 2 x 15 subarray, 30 x 30 output.
PAPER_CONFIG = SmoothingConfig(sub_antennas=2, sub_subcarriers=15, max_subcarrier_shifts=15)


@contract(csi="(K,M,N)", returns="(K,S,C) complex128")
def smooth_csi_stack(
    csi: np.ndarray, config: SmoothingConfig = PAPER_CONFIG
) -> np.ndarray:
    """Fig. 4 smoothed matrices of a ``(K, M, N)`` packet stack at once.

    One gather through the cached placement index
    (:func:`repro.core.indexcache.smoothing_index`); packet ``k`` of the
    result is :func:`smooth_csi` of ``csi[k]``, element for element.
    The stack is assumed validated (complex128, finite).
    """
    stack = np.asarray(csi, dtype=np.complex128)
    if stack.ndim != 3:
        raise CsiShapeError(
            f"expected (packets, antennas, subcarriers), got shape {stack.shape}"
        )
    num_packets, num_antennas, num_subcarriers = stack.shape
    index = smoothing_index(
        num_subcarriers,
        config.sub_antennas,
        config.sub_subcarriers,
        *config.num_shifts(num_antennas, num_subcarriers),
    )
    return stack.reshape(num_packets, num_antennas * num_subcarriers)[:, index]


@contract(csi="(M,N)", returns="(S,C) complex128")
def smooth_csi(csi: np.ndarray, config: SmoothingConfig = PAPER_CONFIG) -> np.ndarray:
    """Build the smoothed CSI matrix of paper Fig. 4.

    Parameters
    ----------
    csi:
        CSI matrix (num_antennas, num_subcarriers), paper Eq. 5 layout.
    config:
        Subarray shape; the default reproduces the paper's 30 x 30 matrix
        for 3 x 30 input.

    Returns
    -------
    numpy.ndarray
        Complex matrix of shape
        (sub_antennas * sub_subcarriers, num_placements).  Column for
        placement (antenna shift i, subcarrier shift j) contains
        ``csi[i : i + sub_antennas, j : j + sub_subcarriers]`` flattened
        antenna-major, matching the steering-vector index order of Eq. 7.
        Placements iterate antenna-shift-major (all subcarrier shifts of
        antenna shift 0 first), matching Fig. 4's column order.  The
        one-packet case of :func:`smooth_csi_stack`.
    """
    return smooth_csi_stack(validate_csi_matrix(csi)[None], config)[0]


@contract(csi="(M,N)", returns="(S,S) complex128")
def smoothed_covariance(
    csi: np.ndarray, config: SmoothingConfig = PAPER_CONFIG
) -> np.ndarray:
    """X X^H of the smoothed matrix — the input to MUSIC (Alg. 2 line 5)."""
    x = smooth_csi(csi, config)
    return x @ x.conj().T


@contract(returns="(S,C) complex128")
def smooth_csi_batch(
    csi_frames: np.ndarray, config: SmoothingConfig = PAPER_CONFIG
) -> np.ndarray:
    """Concatenate the smoothed matrices of several packets column-wise.

    Pooling placements across packets multiplies the number of independent
    measurement columns, which sharpens the covariance estimate; used by
    the multi-packet variant of the estimator.  A reshape of
    :func:`smooth_csi_stack`: packet ``k``'s placements are columns
    ``k * C`` to ``(k + 1) * C - 1``.
    """
    frames = np.asarray(csi_frames)
    if frames.ndim != 3:
        raise CsiShapeError(
            f"expected (packets, antennas, subcarriers), got shape {frames.shape}"
        )
    x = smooth_csi_stack(np.stack([validate_csi_matrix(f) for f in frames]), config)
    return x.transpose(1, 0, 2).reshape(x.shape[1], -1)
