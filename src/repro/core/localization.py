"""Localization — paper Eq. 9 and Alg. 2 line 12 (Sec. 3.3).

Finds the position minimizing the likelihood-weighted least-squares
deviation between observed and predicted (AoA, RSSI) at every AP:

    sum_i l_i [ w_rssi (p_pred_i - p_i)^2 + w_aoa (theta_pred_i - theta_i)^2 ]

with the log-distance path-loss parameters (P0, gamma) as nuisance
variables ("optimization variables as target's location and path loss model
parameters").

The paper convexifies Eq. 9 with sequential convex optimization; the
objective is a small 2-D problem once (P0, gamma) are profiled out — for a
fixed location the optimal (P0, gamma) is a weighted linear regression with
a closed form — so we solve it globally and deterministically in two
vectorized steps:

1. A global grid of ``grid_step_m`` cells over the bounds.  Each AP's
   per-cell geometry (``-10 log10 d`` and the predicted AoA) depends only
   on the grid and the AP's pose, so it is cached per AP
   (:func:`repro.core.indexcache.ap_grid_geometry`); a fix only computes
   residuals and the (P0, gamma) fit over the stacked columns.
2. Nested 11 x 11 local grids around the best cell, one objective batch
   each, the step shrinking 5x per level (0.05 -> 0.0004 m for the default
   0.25 m grid).  When the best point lies on a window's edge the window
   re-centres there at the same step, up to a bounded number of moves, so
   a flat valley is followed rather than truncated.  At the finest step
   the last window's least-squares quadratic proposes a jump to its
   minimum, which reaches the floor of a valley too thin for the grid.
   Candidates are clipped to the bounds before they are evaluated and
   only a strictly lower value moves the solution, so the answer is the
   best in-bounds point the search saw.

``scipy.optimize`` (Nelder-Mead) is the test oracle for this solver, not
part of it: a fix imports no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.channel.pathloss import LogDistancePathLoss
from repro.core.indexcache import ap_grid_geometry, bearing_geometry, cell_centres
from repro.errors import LocalizationError
from repro.geom.points import Point, PointLike, angle_diff_deg, as_point
from repro.wifi.arrays import UniformLinearArray

#: Physical clamp for the fitted path-loss exponent.
_GAMMA_RANGE = (1.5, 6.0)

#: Local refinement: windows of (2 * _HALF_WINDOW + 1)^2 points, the step
#: shrinking by _SHRINK per level from grid_step_m / _SHRINK, at most
#: _MAX_MOVES window evaluations per level (re-centrings on an edge
#: optimum), then up to _POLISH_STEPS quadratic-model steps at the finest
#: step.
_HALF_WINDOW = 5
_SHRINK = 5.0
_LEVELS = 4
_MAX_MOVES = 8
_POLISH_STEPS = 3
_OFFSETS = np.array(
    [
        (i, j)
        for i in range(-_HALF_WINDOW, _HALF_WINDOW + 1)
        for j in range(-_HALF_WINDOW, _HALF_WINDOW + 1)
    ],
    dtype=float,
)
_ON_EDGE = np.abs(_OFFSETS).max(axis=1) == _HALF_WINDOW
#: Least-squares fit of f(c + step * o) ~ a + g.o + o'Ho/2 over the window
#: offsets o = (u, v): coefficients (a, gx, gy, hxx, hxy, hyy) = _QUADRATIC_FIT @ f.
_U, _V = _OFFSETS.T
_QUADRATIC_FIT = np.linalg.pinv(
    np.column_stack([np.ones_like(_U), _U, _V, _U * _U / 2, _U * _V, _V * _V / 2])
)


@dataclass(frozen=True)
class ApObservation:
    """What one AP contributes to localization.

    Attributes
    ----------
    array:
        The AP's antenna array (position + orientation).
    aoa_deg:
        Direct-path AoA the AP reported (deg from its array normal).
    rssi_dbm:
        Observed RSSI (median over the packets used).
    likelihood:
        Eq. 8 likelihood of the AP's direct-path estimate — the l_i
        weight.  Use 1.0 for unweighted ablations.
    """

    array: UniformLinearArray
    aoa_deg: float
    rssi_dbm: float
    likelihood: float = 1.0


@dataclass(frozen=True)
class LocalizationResult:
    """Solver output.

    Attributes
    ----------
    position:
        Estimated target location.
    objective:
        Final Eq. 9 value.
    path_loss:
        Path-loss model fitted at the solution.
    aoa_residuals_deg:
        Per-AP angle residuals at the solution.
    rssi_residuals_db:
        Per-AP RSSI residuals at the solution.
    iterations:
        Local-grid evaluations of the refinement (0 when refinement was
        disabled); surfaced as a trace/metrics attribute.
    """

    position: Point
    objective: float
    path_loss: LogDistancePathLoss
    aoa_residuals_deg: Tuple[float, ...] = ()
    rssi_residuals_db: Tuple[float, ...] = ()
    iterations: int = 0

    def error_to(self, truth: PointLike) -> float:
        """Euclidean distance (m) from the estimate to a ground-truth point."""
        return self.position.distance_to(as_point(truth))


class _Fix(NamedTuple):
    """One fix's observations as arrays, built once per :meth:`Localizer.locate`."""

    positions: np.ndarray  # (R, 2) AP positions
    normals: np.ndarray  # (R,) array normals, deg
    aoa: np.ndarray  # (R,) measured AoA, deg, wrapped into [-180, 180]
    rssi: np.ndarray  # (R,) measured RSSI, dBm (nan where missing)
    weights: np.ndarray  # (R,) normalized l_i
    rssi_ok: np.ndarray  # (R,) finite RSSI


@dataclass
class Localizer:
    """Eq. 9 solver over a rectangular search region.

    Attributes
    ----------
    bounds:
        (x0, y0, x1, y1) search rectangle (typically the floorplan bounds).
    grid_step_m:
        Coarse grid resolution of the global search.
    aoa_weight:
        w_aoa multiplying squared AoA residuals (deg^2).  The paper adds
        raw squared deviations; with AoA in degrees and RSSI in dB the two
        are naturally same-scale, and these weights let benchmarks rebalance.
    rssi_weight:
        w_rssi multiplying squared RSSI residuals (dB^2).
    aoa_residual_cap_deg:
        Per-AP AoA residuals are clipped to this value before squaring
        (0 disables).  One confidently-wrong AP (a reflection selected as
        the direct path) can otherwise contribute a 100+ degree residual
        that outweighs every correct AP; capping bounds its influence,
        realizing the paper's claim that inaccurate APs "will effectively
        not be considered due to SpotFi's robust localization algorithm"
        (Sec. 4.4.3).
    use_likelihood_weights:
        If False, every AP gets weight 1 (ablation of the paper's l_i).
    refine:
        Refine the best grid cell with nested local grids.
    min_aps:
        Minimum observations required (2 AoAs already intersect;
        the default of 2 matches the paper's stress tests).
    """

    bounds: Tuple[float, float, float, float]
    grid_step_m: float = 0.25
    aoa_weight: float = 1.0
    rssi_weight: float = 1.0
    aoa_residual_cap_deg: float = 40.0
    use_likelihood_weights: bool = True
    refine: bool = True
    min_aps: int = 2

    def __post_init__(self) -> None:
        if not all(np.isfinite(b) for b in self.bounds):
            raise LocalizationError(f"non-finite search bounds {self.bounds}")
        x0, y0, x1, y1 = self.bounds
        if x1 <= x0 or y1 <= y0:
            raise LocalizationError(f"empty search bounds {self.bounds}")
        if not (np.isfinite(self.grid_step_m) and self.grid_step_m > 0):
            raise LocalizationError(f"grid step must be > 0, got {self.grid_step_m}")
        if self.grid_step_m > min(x1 - x0, y1 - y0):
            raise LocalizationError(
                f"grid step {self.grid_step_m} m is larger than the bounds {self.bounds}"
            )
        if self.min_aps < 1:
            raise LocalizationError(f"min_aps must be >= 1, got {self.min_aps}")

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def locate(self, observations: Sequence[ApObservation]) -> LocalizationResult:
        """Solve Eq. 9 for the given per-AP observations."""
        obs = [o for o in observations if np.isfinite(o.aoa_deg)]
        if len(obs) < self.min_aps:
            raise LocalizationError(
                f"need >= {self.min_aps} usable AP observations, got {len(obs)}"
            )
        fix = self._fix(obs)
        values = self._grid_values(fix)
        best = int(np.argmin(values))
        solution, objective = self._grid_points()[best], float(values[best])
        if not np.isfinite(objective):
            raise LocalizationError(f"Eq. 9 objective is not finite ({objective})")
        iterations = 0
        if self.refine:
            solution, objective, iterations = self._refine(solution, objective, fix)
        return self._build_result(
            Point(float(solution[0]), float(solution[1])),
            objective,
            fix,
            iterations=iterations,
        )

    def locate_aoa_only(self, observations: Sequence[ApObservation]) -> LocalizationResult:
        """Eq. 9 restricted to the AoA terms (used by the ArrayTrack baseline)."""
        return replace(self, rssi_weight=0.0).locate(observations)

    # ------------------------------------------------------------------
    # Objective machinery
    # ------------------------------------------------------------------
    def _weights(self, obs: Sequence[ApObservation]) -> np.ndarray:
        if self.use_likelihood_weights:
            w = np.array([o.likelihood for o in obs], dtype=float)
            w = np.where(np.isfinite(w) & (w > 0), w, 0.0)
            total = w.sum()
            if total <= 0:
                w = np.ones(len(obs))
            else:
                w = w * (len(obs) / total)  # normalize mean weight to 1
        else:
            w = np.ones(len(obs))
        return w

    def _fix(self, obs: Sequence[ApObservation]) -> _Fix:
        rssi = np.array([o.rssi_dbm for o in obs], dtype=float)
        return _Fix(
            positions=np.array([o.array.position for o in obs], dtype=float),
            normals=np.array([o.array.normal_deg for o in obs], dtype=float),
            aoa=_wrap_measured(np.array([o.aoa_deg for o in obs], dtype=float)),
            rssi=rssi,
            weights=self._weights(obs),
            rssi_ok=np.isfinite(rssi),
        )

    def _grid_key(self) -> Tuple[Tuple[float, float, float, float], float]:
        x0, y0, x1, y1 = (float(b) for b in self.bounds)
        return (x0, y0, x1, y1), float(self.grid_step_m)

    def _grid_points(self) -> np.ndarray:
        return cell_centres(*self._grid_key())

    def _grid_values(self, fix: _Fix) -> np.ndarray:
        """Eq. 9 at every global grid cell, from the per-AP cached columns.

        Bit-identical to ``_objective_batch(_grid_points(), fix)``.
        """
        bounds, step = self._grid_key()
        shape = (len(cell_centres(bounds, step)), len(fix.normals))
        x, pred_aoa = np.empty(shape), np.empty(shape)
        for j, (position, normal) in enumerate(zip(fix.positions, fix.normals)):
            x[:, j], pred_aoa[:, j] = ap_grid_geometry(
                bounds, step, (float(position[0]), float(position[1])), float(normal)
            )
        return self._objective(x, pred_aoa, fix)

    def _refine(
        self, centre: np.ndarray, value: float, fix: _Fix
    ) -> Tuple[np.ndarray, float, int]:
        """Nested local grids from ``centre``; returns (point, value, evaluations).

        Every candidate is clipped to the bounds before it is evaluated and
        only a strictly lower value moves the solution, so the result is
        the best in-bounds point seen.  At the finest step the window's
        quadratic model proposes a jump (exact for a quadratic bowl): a
        valley thinner than the window's spacing otherwise stalls an
        axis-aligned grid short of its floor.
        """
        lo = (self.bounds[0], self.bounds[1])
        hi = (self.bounds[2], self.bounds[3])
        step = float(self.grid_step_m)
        evaluations = 0
        for level in range(_LEVELS + _POLISH_STEPS):
            if level < _LEVELS:
                step /= _SHRINK
            for _ in range(_MAX_MOVES):
                window_centre = centre
                window = np.clip(centre + _OFFSETS * step, lo, hi)
                values = self._objective_batch(window, fix)
                evaluations += 1
                k = int(np.argmin(values))
                if not values[k] < value:
                    break
                centre, value = window[k], float(values[k])
                if not _ON_EDGE[k]:
                    break
            if level < _LEVELS - 1:
                continue
            jump = _model_minimum(window_centre, values, step)
            if jump is None:
                break
            jump = np.clip(jump, lo, hi)
            jump_value = float(self._objective_batch(jump[None, :], fix)[0])
            evaluations += 1
            if not jump_value < value:
                break
            moved = np.max(np.abs(jump - centre))
            centre, value = jump, jump_value
            if moved <= step:
                break  # within one step of the best grid point: converged
        return centre, value, evaluations

    def _objective_batch(self, candidates: np.ndarray, fix: _Fix) -> np.ndarray:
        """Vectorized Eq. 9 with (P0, gamma) profiled out per candidate."""
        dist, pred_aoa = bearing_geometry(candidates, fix.positions, fix.normals)
        return self._objective(-10.0 * np.log10(dist), pred_aoa, fix)

    def _objective(self, x: np.ndarray, pred_aoa: np.ndarray, fix: _Fix) -> np.ndarray:
        """Eq. 9 per row from the (G, R) regressor ``-10 log10 d`` and predicted AoA."""
        cost = np.zeros(len(x))
        if self.aoa_weight != 0:
            aoa_diff = _centre_angle(pred_aoa - fix.aoa[None, :] + 180.0)
            if self.aoa_residual_cap_deg > 0:
                cap = self.aoa_residual_cap_deg
                np.clip(aoa_diff, -cap, cap, out=aoa_diff)
            np.square(aoa_diff, out=aoa_diff)
            aoa_diff *= fix.weights[None, :]
            cost = np.add.reduce(aoa_diff, axis=1) * self.aoa_weight

        ok = fix.rssi_ok
        if self.rssi_weight > 0 and np.count_nonzero(ok) >= 2:
            w = fix.weights[ok][None, :]
            p = fix.rssi[ok][None, :]
            # The mask copy is column-major whatever x's layout, which fixes
            # the reduction's order over APs: every caller sums in the same
            # order.
            xr = x[:, ok]  # (G, R')
            p0, gamma = self._profile_path_loss(xr, p, w)
            resid = p - (p0[:, None] + gamma[:, None] * xr)
            cost = cost + np.add.reduce(w * resid**2, axis=1) * self.rssi_weight
        return cost

    @staticmethod
    def _profile_path_loss(
        x: np.ndarray, p: np.ndarray, w: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Closed-form weighted LS for (P0, gamma) per candidate row.

        Model: p ~ P0 + gamma * x with x = -10 log10(d).  gamma is clamped
        to a physical range; P0 is re-solved after clamping.
        """
        wx = w * x
        sw = np.add.reduce(w, axis=1)
        sx = np.add.reduce(wx, axis=1)
        sp = np.add.reduce(w * p, axis=1)
        sxx = np.add.reduce(wx * x, axis=1)
        sxp = np.add.reduce(wx * p, axis=1)
        denom = sw * sxx - sx * sx
        gamma = np.where(np.abs(denom) > 1e-12, (sw * sxp - sx * sp) / np.where(denom == 0, 1, denom), 2.5)
        gamma = np.clip(gamma, *_GAMMA_RANGE)
        p0 = (sp - gamma * sx) / sw
        return p0, gamma

    def _build_result(
        self,
        position: Point,
        objective: float,
        fix: _Fix,
        iterations: int = 0,
    ) -> LocalizationResult:
        dist, pred_aoa = bearing_geometry(
            np.array([[position.x, position.y]]), fix.positions, fix.normals
        )
        aoa_resid = tuple(
            float(angle_diff_deg(pred_aoa[0, i], fix.aoa[i])) for i in range(len(fix.aoa))
        )
        ok = fix.rssi_ok
        if np.count_nonzero(ok) >= 2:
            x = -10.0 * np.log10(dist[:, ok])
            p0, gamma = self._profile_path_loss(
                x, fix.rssi[ok][None, :], fix.weights[ok][None, :]
            )
            model = LogDistancePathLoss(p0_dbm=float(p0[0]), exponent=float(gamma[0]))
            pred = model.rssi_dbm(dist[0])
            rssi_resid = tuple(
                float(fix.rssi[i] - pred[i]) if ok[i] else float("nan")
                for i in range(len(fix.rssi))
            )
        else:
            model = LogDistancePathLoss()
            rssi_resid = tuple(float("nan") for _ in fix.rssi)
        return LocalizationResult(
            position=position,
            objective=objective,
            path_loss=model,
            aoa_residuals_deg=aoa_resid,
            rssi_residuals_db=rssi_resid,
            iterations=iterations,
        )


def _wrap_measured(aoa_deg: np.ndarray) -> np.ndarray:
    """Measured AoAs outside [-180, 180] wrapped into it; the rest unchanged.

    With every predicted AoA in [-180, 180] too, the residual argument
    ``pred - measured + 180`` then stays in [-180, 540], the range
    :func:`_centre_angle` covers.
    """
    return np.where(np.abs(aoa_deg) <= 180.0, aoa_deg, (aoa_deg + 180.0) % 360.0 - 180.0)


def _centre_angle(t: np.ndarray) -> np.ndarray:
    """``t % 360 - 180`` for ``t`` in [-360, 720), in place and bit for bit.

    In that range ``np.mod`` adds 360 to a negative ``t`` and subtracts 360
    (exactly, by Sterbenz) from one at or above 360.  Both masks are taken
    before either update, so a tiny negative ``t`` that rounds up to 360
    stays 360, as under ``np.mod``; a zero may keep its sign, which the
    final ``- 180`` erases.
    """
    below, above = t < 0.0, t >= 360.0
    np.add(t, 360.0, out=t, where=below)
    np.subtract(t, 360.0, out=t, where=above)
    t -= 180.0
    return t


def _model_minimum(
    centre: np.ndarray, values: np.ndarray, step: float
) -> Optional[np.ndarray]:
    """Minimizer of the quadratic fitted to one window's values.

    ``values`` are the objective at ``centre + step * _OFFSETS``; returns
    None when the fitted quadratic is not strictly convex.
    """
    _, gx, gy, hxx, hxy, hyy = _QUADRATIC_FIT @ values
    det = hxx * hyy - hxy * hxy
    if not (hxx > 0 and det > 0):
        return None
    return centre - step * np.array([hyy * gx - hxy * gy, hxx * gy - hxy * gx]) / det
