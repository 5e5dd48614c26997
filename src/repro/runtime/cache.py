"""Memoized steering grids for the MUSIC spectrum evaluation.

Every per-packet spectrum needs the same grid matrices — the AoA grid,
the ToF grid, the per-grid-point antenna/subcarrier phase vectors
Phi(theta) and Omega(tau) of Eqs. 1/6, and the projector-form
spectrum's two grid factors conj(Omega) and W (built from Phi) — yet
the estimator used to rebuild them for each packet.  They depend only on (array geometry,
OFDM grid, MUSIC grid configuration), so across a 40-packet burst (or a
million-user deployment with a handful of AP hardware models) the same
few matrices recur endlessly.

:class:`SteeringCache` memoizes them.  The cache is process-local: each
worker process of a :class:`~repro.runtime.executor.ParallelExecutor`
builds its own on first use and then serves every subsequent packet from
memory.  Values are computed by the exact same :class:`SteeringModel`
methods the uncached path called, so cached and uncached spectra are
bit-identical.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Tuple

import numpy as np

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # core's estimator imports this module
    from repro.core.music import MusicConfig
    from repro.core.steering import SteeringModel


@dataclass(frozen=True)
class SteeringGrids:
    """The precomputed grid matrices for one (model, MUSIC config) pair.

    Attributes
    ----------
    aoa_grid_deg:
        1-D AoA search grid (A,).
    tof_grid_s:
        1-D ToF search grid (T,).
    phi:
        Antenna steering vectors over the AoA grid, shape (A, M).
    omega:
        Subcarrier steering vectors over the ToF grid, shape (T, N).
    omega_conj:
        ``conj(omega)``, the left factor of the projector-form spectrum.
    weights:
        :func:`~repro.core.music.steering_weights` of ``phi``, shape
        (A, 2 M^2): the spectrum's real grid factor.
    """

    aoa_grid_deg: np.ndarray
    tof_grid_s: np.ndarray
    phi: np.ndarray
    omega: np.ndarray
    omega_conj: np.ndarray
    weights: np.ndarray


def _build_grids(model: SteeringModel, music: MusicConfig) -> SteeringGrids:
    # Deferred: runtime sits below core, and this is its one call upward.
    from repro.core.music import steering_weights

    aoa_grid = music.aoa_grid()
    tof_grid = music.tof_grid()
    phi = model.antenna_vector(aoa_grid)
    omega = model.subcarrier_vector(tof_grid)
    omega_conj = omega.conj()
    weights = steering_weights(phi)
    # Entries are shared across packets and workers' closures; freeze them
    # so an accidental in-place edit cannot corrupt later spectra.
    for arr in (aoa_grid, tof_grid, phi, omega, omega_conj, weights):
        arr.setflags(write=False)
    return SteeringGrids(
        aoa_grid_deg=aoa_grid,
        tof_grid_s=tof_grid,
        phi=phi,
        omega=omega,
        omega_conj=omega_conj,
        weights=weights,
    )


class SteeringCache:
    """LRU-bounded memoization of :class:`SteeringGrids`.

    Keys are ``(SteeringModel, aoa grid spec, tof grid spec)`` — all
    hashable value objects, so two estimators with identical physics
    share one entry regardless of identity.
    """

    def __init__(self, max_entries: int = 64) -> None:
        if max_entries < 1:
            raise ConfigurationError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = int(max_entries)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple, SteeringGrids]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------
    def grids_for(self, model: SteeringModel, music: MusicConfig) -> SteeringGrids:
        """The (possibly cached) steering grids for a model/config pair."""
        key = (model, music.aoa_grid_deg, music.tof_grid_s)
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._hits += 1
                self._entries.move_to_end(key)
                return cached
            self._misses += 1
        # Build outside the lock: construction is pure and idempotent, so
        # a racing duplicate build costs time, never correctness.
        grids = _build_grids(model, music)
        with self._lock:
            self._entries[key] = grids
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1
        return grids

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Hit/miss/eviction counters, entry count, and derived hit rate.

        ``hit_rate`` is hits / (hits + misses), 0.0 before any lookup —
        the gauge :func:`repro.obs.prometheus.render_prometheus` exposes
        as ``repro_steering_cache_hit_rate``.
        """
        with self._lock:
            lookups = self._hits + self._misses
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "entries": len(self._entries),
                "hit_rate": self._hits / lookups if lookups else 0.0,
            }

    def clear(self) -> None:
        """Drop every entry and zero the counters."""
        with self._lock:
            self._entries.clear()
            self._hits = self._misses = self._evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


_DEFAULT_CACHE = SteeringCache()


def default_steering_cache() -> SteeringCache:
    """The process-wide cache the estimators use.

    Module-level rather than per-estimator so (a) forked workers reuse
    one cache across every task they run, and (b) estimators stay
    picklable (the cache holds a lock, which is not).
    """
    return _DEFAULT_CACHE
