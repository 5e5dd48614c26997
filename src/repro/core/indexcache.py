"""Cached, read-only index/grid arrays for the per-packet hot path.

``np.arange`` calls in sanitize, steering, and grid-search
code rebuild the same small arrays on every packet — flagged by flow
rule REP011 because the shapes depend only on the (fixed) array
geometry and grid config, never on the data.  These helpers memoize
them once per distinct argument tuple.  The same holds per fix for the
Eq. 9 global grid: its cell centres and each AP's per-cell geometry
depend only on the bounds, the step and the AP's pose.

Returned arrays are the cached instances with ``writeable=False``: a
caller that tries to mutate one raises immediately instead of silently
poisoning every later packet.  Callers needing a scratch copy must
``.copy()`` explicitly.

The functions here are declared cache boundaries in the flow seam
manifest (:data:`repro.analysis.flow.seams.DEFAULT_MANIFEST`): the
allocation inside them happens only on cache miss, so REP011 does not
flag it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

import numpy as np


@lru_cache(maxsize=128)
def index_vector(n: int, dtype: Optional[str] = None) -> np.ndarray:
    """``np.arange(n)`` (optionally typed), cached and read-only."""
    out = np.arange(n) if dtype is None else np.arange(n, dtype=dtype)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=128)
def grid_range(start: float, stop: float, step: float) -> np.ndarray:
    """``np.arange(start, stop, step)``, cached and read-only."""
    out = np.arange(start, stop, step)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=16)
def cell_centres(bounds: Tuple[float, float, float, float], step: float) -> np.ndarray:
    """(G, 2) centres of the ``step``-sized cells tiling ``bounds``.

    Row-major over x then y, so cell ``g`` is ``(xs[g // ny], ys[g % ny])``;
    cached and read-only.
    """
    x0, y0, x1, y1 = bounds
    xs = grid_range(x0 + step / 2, x1, step)
    ys = grid_range(y0 + step / 2, y1, step)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    out = np.stack([gx.ravel(), gy.ravel()], axis=1)
    out.setflags(write=False)
    return out


def bearing_geometry(
    candidates: np.ndarray, positions: np.ndarray, normals: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per (candidate, AP): distance (m, floored at 1 mm) and predicted AoA.

    ``candidates`` is (G, 2), ``positions`` (R, 2) and ``normals`` (R,)
    the APs' array normals (deg); the AoA is the bearing from the AP to
    the candidate relative to its normal, wrapped to [-180, 180].  Every
    output element depends only on its own candidate and AP, so a column
    computed for one AP equals the same column computed among many.
    """
    delta = candidates[:, None, :] - positions[None, :, :]  # (G, R, 2)
    dist = np.maximum(np.linalg.norm(delta, axis=2), 1e-3)  # (G, R)
    bearing = np.degrees(np.arctan2(delta[..., 1], delta[..., 0]))  # (G, R)
    pred_aoa = (bearing - normals[None, :] + 180.0) % 360.0 - 180.0
    return dist, pred_aoa


@lru_cache(maxsize=64)
def ap_grid_geometry(
    bounds: Tuple[float, float, float, float],
    step: float,
    position: Tuple[float, float],
    normal_deg: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """One AP's Eq. 9 columns over :func:`cell_centres`, cached and read-only.

    Returns the log-distance regressor ``-10 log10(d)`` and the predicted
    AoA (deg) at every cell: both depend on the grid and the AP's pose,
    never on a fix's measurements.
    """
    dist, pred_aoa = bearing_geometry(
        cell_centres(bounds, step), np.array([position]), np.array([normal_deg])
    )
    x = -10.0 * np.log10(dist[:, 0])
    aoa = pred_aoa[:, 0]
    x.setflags(write=False)
    aoa.setflags(write=False)
    return x, aoa


@lru_cache(maxsize=16)
def smoothing_index(
    num_subcarriers: int,
    sub_antennas: int,
    sub_subcarriers: int,
    ant_shifts: int,
    sub_shifts: int,
) -> np.ndarray:
    """(S, C) flat CSI positions of every Fig. 4 subarray placement.

    Entry ``[r, c]`` indexes a row-major CSI matrix with
    ``num_subcarriers`` columns: row ``r`` is the sensor (antenna-major
    within the subarray), column ``c`` the placement, antenna-shift-major
    (all subcarrier shifts of antenna shift 0 first).  Cached and
    read-only.
    """
    sensor = (
        index_vector(sub_antennas)[:, None] * num_subcarriers
        + index_vector(sub_subcarriers)[None, :]
    ).reshape(-1, 1)
    placement = (
        index_vector(ant_shifts)[:, None] * num_subcarriers
        + index_vector(sub_shifts)[None, :]
    ).reshape(1, -1)
    out = sensor + placement
    out.setflags(write=False)
    return out
