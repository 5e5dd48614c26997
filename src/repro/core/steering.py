"""Steering vectors for SpotFi's joint (AoA, ToF) sensor array.

Implements the paper's Eqs. 1, 2, 6 and 7:

* ``Phi(theta) = exp(-j 2 pi d sin(theta) f / c)`` — per-antenna phase
  ratio induced by the AoA (Eq. 1);
* ``Omega(tau) = exp(-j 2 pi f_delta tau)`` — per-subcarrier phase ratio
  induced by the ToF (Eq. 6);
* ``a(theta, tau)`` — the joint steering vector over the M x N sensor
  array, antenna-major so entry (m, n) sits at index ``m * N + n``
  (Eq. 7 / Fig. 4 stacking order).

The joint vector factorizes as a Kronecker product
``a(theta, tau) = phi_vec(theta) (x) omega_vec(tau)``; the MUSIC spectrum
evaluation exploits that factorization to evaluate whole (theta, tau)
grids with a few small matrix products instead of per-point loops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from repro.constants import SPEED_OF_LIGHT
from repro.core.indexcache import index_vector
from repro.errors import ConfigurationError
from repro.wifi.ofdm import OfdmGrid


@dataclass(frozen=True)
class SteeringModel:
    """Parameters of the joint steering-vector model.

    Attributes
    ----------
    num_antennas:
        M — antennas spanned by the steering vector (2 for the smoothed
        subarray, 3 for the raw Intel 5300 array).
    num_subcarriers:
        N — subcarriers spanned (15 for the smoothed subarray, 30 raw).
    antenna_spacing_m:
        ULA element spacing d.
    carrier_freq_hz:
        Signal frequency f of Eq. 1.
    subcarrier_spacing_hz:
        f_delta of Eq. 6 (spacing of consecutive *reported* entries).
    """

    num_antennas: int
    num_subcarriers: int
    antenna_spacing_m: float
    carrier_freq_hz: float
    subcarrier_spacing_hz: float

    def __post_init__(self) -> None:
        if self.num_antennas < 1 or self.num_subcarriers < 1:
            raise ConfigurationError("need >= 1 antenna and >= 1 subcarrier")
        if min(self.antenna_spacing_m, self.carrier_freq_hz, self.subcarrier_spacing_hz) <= 0:
            raise ConfigurationError(
                "spacing and frequencies must be positive: "
                f"d={self.antenna_spacing_m}, f={self.carrier_freq_hz}, "
                f"f_delta={self.subcarrier_spacing_hz}"
            )

    @property
    def num_sensors(self) -> int:
        """Size M x N of the joint sensor array."""
        return self.num_antennas * self.num_subcarriers

    @property
    def tof_ambiguity_s(self) -> float:
        """Omega's period: ToF is identifiable only in [0, 1/f_delta)."""
        return 1.0 / self.subcarrier_spacing_hz

    # ------------------------------------------------------------------
    # Eq. 1 / Eq. 6 scalars
    # ------------------------------------------------------------------
    def phi(self, aoa_deg: "ArrayLike") -> np.ndarray:
        """Eq. 1: Phi(theta), vectorized over ``aoa_deg``."""
        theta = np.deg2rad(np.asarray(aoa_deg, dtype=float))
        return np.exp(
            -2j
            * np.pi
            * self.antenna_spacing_m
            * np.sin(theta)
            * self.carrier_freq_hz
            / SPEED_OF_LIGHT
        )

    def omega(self, tof_s: "ArrayLike") -> np.ndarray:
        """Eq. 6: Omega(tau), vectorized over ``tof_s``."""
        tau = np.asarray(tof_s, dtype=float)
        return np.exp(-2j * np.pi * self.subcarrier_spacing_hz * tau)

    # ------------------------------------------------------------------
    # Eq. 2 / Eq. 7 vectors
    # ------------------------------------------------------------------
    def antenna_vector(self, aoa_deg: "ArrayLike") -> np.ndarray:
        """Eq. 2: ``[1, Phi, ..., Phi^(M-1)]``; (..., M) for array input."""
        phi = self.phi(aoa_deg)
        powers = index_vector(self.num_antennas)
        return np.power(np.asarray(phi)[..., None], powers)

    def subcarrier_vector(self, tof_s: "ArrayLike") -> np.ndarray:
        """``[1, Omega, ..., Omega^(N-1)]``; (..., N) for array input."""
        omega = self.omega(tof_s)
        powers = index_vector(self.num_subcarriers)
        return np.power(np.asarray(omega)[..., None], powers)

    def steering_vector(self, aoa_deg: float, tof_s: float) -> np.ndarray:
        """Eq. 7: the joint (M*N,) steering vector, antenna-major."""
        return np.kron(
            self.antenna_vector(float(aoa_deg)),
            self.subcarrier_vector(float(tof_s)),
        )

    def steering_matrix(self, aoas_deg: "ArrayLike", tofs_s: "ArrayLike") -> np.ndarray:
        """Steering matrix A = [a(theta_1, tau_1) ... a(theta_L, tau_L)].

        ``aoas_deg`` and ``tofs_s`` are equal-length sequences; the result
        has shape (M*N, L).
        """
        aoas = np.atleast_1d(np.asarray(aoas_deg, dtype=float))
        tofs = np.atleast_1d(np.asarray(tofs_s, dtype=float))
        if aoas.shape != tofs.shape:
            raise ConfigurationError(
                f"AoA/ToF lists must have equal length: {aoas.shape} vs {tofs.shape}"
            )
        columns = [self.steering_vector(a, t) for a, t in zip(aoas, tofs)]
        return np.stack(columns, axis=1)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def for_grid(
        grid: OfdmGrid,
        num_antennas: int,
        antenna_spacing_m: float,
        num_subcarriers: int = 0,
    ) -> "SteeringModel":
        """Build a model matching an :class:`OfdmGrid`.

        ``num_subcarriers`` defaults to the grid's full count; pass the
        subarray size when modeling the smoothed matrix.
        """
        n = num_subcarriers if num_subcarriers > 0 else grid.num_subcarriers
        return SteeringModel(
            num_antennas=num_antennas,
            num_subcarriers=n,
            antenna_spacing_m=antenna_spacing_m,
            carrier_freq_hz=grid.carrier_freq_hz,
            subcarrier_spacing_hz=grid.subcarrier_spacing_hz,
        )

    def subarray_model(self, num_antennas: int, num_subcarriers: int) -> "SteeringModel":
        """The same physics on a smaller (sub)array — used after smoothing."""
        if num_antennas > self.num_antennas or num_subcarriers > self.num_subcarriers:
            raise ConfigurationError(
                "subarray cannot exceed the parent array: "
                f"({num_antennas}, {num_subcarriers}) vs "
                f"({self.num_antennas}, {self.num_subcarriers})"
            )
        return SteeringModel(
            num_antennas=num_antennas,
            num_subcarriers=num_subcarriers,
            antenna_spacing_m=self.antenna_spacing_m,
            carrier_freq_hz=self.carrier_freq_hz,
            subcarrier_spacing_hz=self.subcarrier_spacing_hz,
        )
