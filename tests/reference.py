"""Slow, obviously correct reference copies of optimised pipeline code.

When an optimisation replaces a kernel, the code it replaced moves here
and the tests compare the new kernel against it, instead of each test
file keeping a private oracle.

Per-packet 2-D MUSIC (Alg. 2 lines 3-7): one packet at a time, the way
the estimator ran before every stage took an AP's whole ``(K, M, N)``
packet stack — a per-packet Algorithm 1 fit, a loop over Fig. 4
placements, ``X X^H``, the projector-form spectrum with its grid
factors rebuilt for every packet, and a peak search that tests and
refines one spectrum's candidates.  :func:`reference_estimate_packet`
composes them like ``stage_sanitize -> stage_smooth -> stage_music ->
stage_peaks`` did.

Per-packet ESPRIT (:func:`reference_esprit_packet`): the same front end
with the eigen-split written out, each eigenvalue converted to (AoA,
ToF) on its own, and path powers fitted against a steering matrix built
one ``np.kron`` column per path (:func:`reference_steering_matrix`).

Scalar image-method ray tracing (:func:`reference_trace`): the tracer
before it ran as arrays over all walls -- one wall sequence at a time,
one ``Point`` per image and hit, one ``Segment.crosses`` call per
(leg, wall) pair (:func:`reference_walls_crossed`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.constants import SPEED_OF_LIGHT
from repro.core.esprit import EspritEstimator, _selection_indices
from repro.core.estimator import JointEstimator, PathEstimate
from repro.core.music import subspaces
from repro.core.peaks import SpectrumPeak, merge_close_peaks
from repro.core.smoothing import SmoothingConfig
from repro.core.steering import SteeringModel
from repro.errors import EstimationError, GeometryError
from repro.geom.floorplan import Floorplan
from repro.geom.points import Point, PointLike, as_point
from repro.geom.rays import (
    KIND_DIFFRACTION,
    KIND_DIRECT,
    KIND_REFLECTION,
    KIND_SCATTER,
    RayTracer,
    TracedPath,
)
from repro.geom.segments import Segment
from repro.runtime.cache import default_steering_cache
from repro.wifi.csi import validate_csi_matrix


def reference_sanitize_csi(csi: np.ndarray) -> np.ndarray:
    """Algorithm 1 on one packet: pooled OLS slope over (M, N), removed."""
    csi = validate_csi_matrix(csi)
    psi = np.unwrap(np.angle(csi), axis=1)
    num_antennas, num_subcarriers = psi.shape
    n = np.arange(num_subcarriers, dtype="float64")
    n_mean = n.mean()
    psi_mean = psi.mean()
    n_var = float(np.sum((n - n_mean) ** 2)) * num_antennas
    cov = float(np.sum((n - n_mean)[None, :] * (psi - psi_mean)))
    slope = cov / n_var
    return np.abs(csi) * np.exp(1j * (psi - slope * n[None, :]))


def reference_smooth_csi(csi: np.ndarray, config: SmoothingConfig) -> np.ndarray:
    """Fig. 4 smoothed matrix, one placement column at a time."""
    csi = validate_csi_matrix(csi)
    ant_shifts, sub_shifts = config.num_shifts(*csi.shape)
    out = np.empty(
        (config.sensors_per_subarray, ant_shifts * sub_shifts), dtype=np.complex128
    )
    col = 0
    for i in range(ant_shifts):
        for j in range(sub_shifts):
            block = csi[i : i + config.sub_antennas, j : j + config.sub_subcarriers]
            out[:, col] = block.reshape(-1)
            col += 1
    return out


def reference_spectrum(
    basis: np.ndarray,
    from_signal: bool,
    model: SteeringModel,
    phi: np.ndarray,
    omega: np.ndarray,
) -> np.ndarray:
    """Projector-form MUSIC spectrum with both grid factors built here."""
    m, n = model.num_antennas, model.num_subcarriers
    blocks = (basis @ basis.conj().T).reshape(m, n, m, n).transpose(1, 0, 2, 3)
    half = (omega.conj() @ blocks.reshape(n, m * m * n)).reshape(-1, m * m, n)
    q = (half * omega[:, None, :]).sum(axis=2).T
    w = (phi.conj()[:, :, None] * phi[:, None, :]).reshape(-1, m * m)
    energy = np.concatenate((w.real, -w.imag), axis=1) @ np.concatenate((q.real, q.imag))
    energy /= m * n
    if from_signal:
        energy = np.subtract(1.0, energy, out=energy)
    np.maximum(energy, 1e-18, out=energy)
    np.divide(1.0, energy, out=energy)
    return energy


def _reference_local_maxima(
    spec: np.ndarray, threshold: float, neighborhood: int, exclude_border: bool
) -> Tuple[np.ndarray, np.ndarray]:
    n_rows, n_cols = spec.shape
    flat = spec.ravel()
    index = np.flatnonzero(flat >= threshold)
    rows, cols = np.divmod(index, n_cols)
    if exclude_border:
        inside = (rows > 0) & (rows < n_rows - 1) & (cols > 0) & (cols < n_cols - 1)
        index, rows, cols = index[inside], rows[inside], cols[inside]
    offsets = (np.arange(neighborhood) - neighborhood // 2)[:, None]
    window_rows = np.clip(rows + offsets, 0, n_rows - 1)
    window_cols = np.clip(cols + offsets, 0, n_cols - 1)
    window = flat[window_rows[:, None, :] * n_cols + window_cols[None, :, :]]
    window = window.reshape(neighborhood * neighborhood, index.size)
    center = flat[index]
    is_peak = (
        (center >= window.max(axis=0))
        & (center > 0)
        & (center > window.min(axis=0) * (1.0 + 1e-12))
    )
    index, power = index[is_peak], center[is_peak]
    order = np.argsort(-power, kind="stable")
    return index[order], power[order]


def _reference_refine(
    spec: np.ndarray, grid: np.ndarray, k: np.ndarray, other: np.ndarray
) -> np.ndarray:
    last = spec.shape[0] - 1
    below, above = np.maximum(k - 1, 0), np.minimum(k + 1, last)
    samples = np.stack([spec[below, other], spec[k, other], spec[above, other]])
    left, center, right = np.log(np.maximum(samples, 1e-300))
    denom = left - 2.0 * center + right
    offset = np.zeros_like(denom)
    np.divide(0.5 * (left - right), denom, out=offset, where=denom < -1e-300)
    offset = np.clip(offset, -0.5, 0.5)
    step = np.where(offset >= 0, grid[above] - grid[k], grid[k] - grid[below])
    return np.where((k == 0) | (k == last), grid[k], grid[k] + offset * step)


def reference_find_peaks_2d(
    spectrum: np.ndarray,
    aoa_grid_deg: np.ndarray,
    tof_grid_s: np.ndarray,
    max_peaks: int = 8,
    min_rel_height_db: float = 20.0,
    neighborhood: int = 3,
    exclude_border: bool = True,
) -> List[SpectrumPeak]:
    """One spectrum's peaks: threshold, test, rescan if needed, refine."""
    spec = np.asarray(spectrum, dtype=float)
    allowed = spec[1:-1, 1:-1] if exclude_border else spec
    if allowed.size == 0:
        return []
    top = allowed.max()
    scale = 10.0 ** (-min_rel_height_db / 10.0)
    index, power = _reference_local_maxima(spec, top * scale, neighborhood, exclude_border)
    if power.size == 0 or power[0] < top:
        floor = power[0] * scale if power.size else 0.0
        index, power = _reference_local_maxima(spec, floor, neighborhood, exclude_border)
    if power.size == 0:
        return []
    kept = (power >= power[0] * scale).nonzero()[0][:max_peaks]
    rows, cols = np.divmod(index[kept], spec.shape[1])
    aoa = _reference_refine(spec, np.asarray(aoa_grid_deg, dtype=float), rows, cols)
    tof = _reference_refine(spec.T, np.asarray(tof_grid_s, dtype=float), cols, rows)
    return [
        SpectrumPeak(aoa_deg=float(a), tof_s=float(t), power=float(p))
        for a, t, p in zip(aoa, tof, power[kept])
    ]


def reference_packet_spectrum(
    estimator: JointEstimator, csi: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(spectrum, aoa_grid, tof_grid) of one packet, stage by stage."""
    model = estimator.model
    csi = validate_csi_matrix(csi)
    shape = (model.num_antennas, model.num_subcarriers)
    if csi.shape != shape:
        raise EstimationError(
            f"CSI shape {csi.shape} does not match the steering model {shape}"
        )
    if estimator.sanitize:
        csi = reference_sanitize_csi(csi)
    x = reference_smooth_csi(csi, estimator.smoothing)
    e_signal, e_noise, _ = subspaces(
        x @ x.conj().T, estimator.music, num_snapshots=x.shape[1]
    )
    grids = default_steering_cache().grids_for(estimator.subarray_model, estimator.music)
    from_signal = e_signal.shape[1] <= e_noise.shape[1]
    spectrum = reference_spectrum(
        e_signal if from_signal else e_noise,
        from_signal,
        estimator.subarray_model,
        grids.phi,
        grids.omega,
    )
    return spectrum, grids.aoa_grid_deg, grids.tof_grid_s


def reference_estimate_packet(
    estimator: JointEstimator, csi: np.ndarray, packet_index: int = 0
) -> List[PathEstimate]:
    """One packet's 2-D MUSIC path estimates, strongest first."""
    spectrum, aoa_grid, tof_grid = reference_packet_spectrum(estimator, csi)
    peaks = reference_find_peaks_2d(
        spectrum,
        aoa_grid,
        tof_grid,
        max_peaks=estimator.max_peaks * 2,
        min_rel_height_db=estimator.min_rel_height_db,
    )
    return [
        PathEstimate(p.aoa_deg, p.tof_s, p.power, packet_index)
        for p in merge_close_peaks(peaks)[: estimator.max_peaks]
    ]


def reference_estimate_packets(
    estimator: JointEstimator, csi: List[np.ndarray]
) -> List[object]:
    """Per packet: its estimates, or the repr of its EstimationError."""
    out: List[object] = []
    for i, matrix in enumerate(csi):
        try:
            out.append(reference_estimate_packet(estimator, matrix, i))
        except EstimationError as exc:
            out.append(repr(exc))
    return out


def reference_steering_matrix(
    model: SteeringModel, aoas_deg: List[float], tofs_s: List[float]
) -> np.ndarray:
    """(M*N, L) steering matrix, one ``np.kron`` column per path."""
    columns = [
        np.kron(model.antenna_vector(float(a)), model.subcarrier_vector(float(t)))
        for a, t in zip(aoas_deg, tofs_s)
    ]
    if not columns:
        return np.zeros((model.num_sensors, 0), dtype=np.complex128)
    return np.stack(columns, axis=1)


def _reference_tof(model: SteeringModel, omega: complex) -> float:
    """Invert Omega(tau) = exp(-j 2 pi f_delta tau), principal branch."""
    return float(-np.angle(omega) / (2.0 * np.pi * model.subcarrier_spacing_hz))


def _reference_aoa(model: SteeringModel, phi: complex) -> Optional[float]:
    """Invert Phi(theta) = exp(-j 2 pi d sin(theta) f / c); None if not visible."""
    sin_theta = -np.angle(phi) * SPEED_OF_LIGHT / (
        2.0 * np.pi * model.antenna_spacing_m * model.carrier_freq_hz
    )
    if abs(sin_theta) > 1.0:
        return None
    return float(np.degrees(np.arcsin(sin_theta)))


def reference_esprit_packet(
    estimator: EspritEstimator, csi: np.ndarray, packet_index: int = 0
) -> List[PathEstimate]:
    """One packet's ESPRIT path estimates, strongest first.

    Threshold model order only (no MDL); raises the packet's
    :class:`EstimationError` on a degenerate covariance.
    """
    csi = validate_csi_matrix(csi)
    if estimator.sanitize:
        csi = reference_sanitize_csi(csi)
    x = reference_smooth_csi(csi, estimator.smoothing)
    r = x @ x.conj().T
    if estimator.music.forward_backward:
        r = (r + r[::-1, ::-1].conj()) / 2.0
    eigenvalues, eigenvectors = np.linalg.eigh((r + r.conj().T) / 2.0)
    eigenvalues = eigenvalues[::-1]
    eigenvectors = eigenvectors[:, ::-1]
    if eigenvalues[0] <= 0:
        raise EstimationError("covariance has no positive eigenvalues (zero CSI?)")
    num_paths = int(
        np.sum(eigenvalues > estimator.music.eigenvalue_threshold_ratio * eigenvalues[0])
    )
    tau_j1, tau_j2, theta_j1, theta_j2 = _selection_indices(
        estimator.smoothing.sub_antennas, estimator.smoothing.sub_subcarriers
    )
    limit = min(estimator.music.max_paths, len(tau_j1) - 1, len(theta_j1) - 1)
    e_signal = eigenvectors[:, : int(np.clip(num_paths, 1, limit))]
    f_tau = np.linalg.lstsq(e_signal[tau_j1], e_signal[tau_j2], rcond=None)[0]
    f_theta = np.linalg.lstsq(e_signal[theta_j1], e_signal[theta_j2], rcond=None)[0]
    tau_eigs, t = np.linalg.eig(f_tau)
    theta_eigs = np.diag(np.linalg.inv(t) @ f_theta @ t)
    sub = estimator.subarray_model
    paths = []
    for omega, phi in zip(tau_eigs, theta_eigs):
        aoa = _reference_aoa(sub, phi)
        if aoa is not None:
            paths.append((aoa, _reference_tof(sub, omega)))
    if not paths:
        return []
    a = reference_steering_matrix(
        estimator.model, [p[0] for p in paths], [p[1] for p in paths]
    )
    powers = np.abs(np.linalg.lstsq(a, csi.reshape(-1), rcond=None)[0]) ** 2
    results = [
        PathEstimate(aoa, tof, float(p), packet_index)
        for (aoa, tof), p in zip(paths, powers)
    ]
    results.sort(key=lambda e: -e.power)
    return results


def reference_crosses(
    wall: Segment, path_a: PointLike, path_b: PointLike, endpoint_tol: float = 1e-6
) -> bool:
    """``Segment.crosses`` one (wall, leg) pair at a time, in scalar arithmetic."""
    hit = wall.intersect(path_a, path_b)
    if hit is None:
        return False
    _, point = hit
    pa, pb = as_point(path_a), as_point(path_b)
    if point.distance_to(pa) <= endpoint_tol or point.distance_to(pb) <= endpoint_tol:
        return False
    return True


def reference_walls_crossed(
    plan: Floorplan, a: PointLike, b: PointLike, ignore: Sequence[Segment] = ()
) -> List[Segment]:
    """``Floorplan.walls_crossed`` as one :func:`reference_crosses` per wall."""
    ignore_ids = {id(w) for w in ignore}
    return [
        wall
        for wall in plan.walls
        if id(wall) not in ignore_ids and reference_crosses(wall, a, b)
    ]


def reference_trace(tracer: RayTracer, tx: PointLike, rx: PointLike) -> List[TracedPath]:
    """``RayTracer.trace`` one wall sequence, scatterer and edge at a time.

    Takes the tracer as its first argument, so it can stand in for the
    method (``monkeypatch.setattr(RayTracer, "trace", reference_trace)``).
    """
    tx_p, rx_p = as_point(tx), as_point(rx)
    if tx_p.distance_to(rx_p) < 1e-9:
        raise GeometryError("transmitter and receiver coincide")
    plan = tracer.floorplan
    paths: List[TracedPath] = []
    crossed = reference_walls_crossed(plan, tx_p, rx_p)
    if not crossed or tracer.allow_through_wall:
        paths.append(
            TracedPath(vertices=(tx_p, rx_p), kind=KIND_DIRECT, penetrated_walls=tuple(crossed))
        )
    if tracer.max_reflection_order >= 1:
        for walls in _reference_wall_sequences(plan.walls, tracer.max_reflection_order):
            path = _reference_reflect_via(tracer, tx_p, rx_p, walls)
            if path is not None:
                paths.append(path)
    if tracer.include_scatterers:
        paths.extend(_reference_scatterers(tracer, tx_p, rx_p))
    if tracer.include_diffraction:
        paths.extend(_reference_diffraction(plan, tx_p, rx_p))
    return paths


def _reference_wall_sequences(
    walls: Sequence[Segment], max_order: int
) -> List[Tuple[Segment, ...]]:
    """Wall sequences up to ``max_order``, no wall twice in a row."""
    sequences: List[Tuple[Segment, ...]] = [(w,) for w in walls]
    prev_level = sequences[:]
    for _ in range(1, max_order):
        level = []
        for seq in prev_level:
            for wall in walls:
                if wall is seq[-1]:
                    continue
                level.append(seq + (wall,))
        sequences.extend(level)
        prev_level = level
    return sequences


def _reference_reflect_via(
    tracer: RayTracer, tx: Point, rx: Point, walls: Tuple[Segment, ...]
) -> Optional[TracedPath]:
    """The specular path off ``walls`` in order: images out, hits back."""
    images = [tx]
    for wall in walls:
        images.append(wall.mirror(images[-1]))
    hits: List[Point] = []
    target = rx
    for wall, image in zip(reversed(walls), reversed(images[:-1])):
        mirrored = wall.mirror(image)
        hit = wall.intersect(mirrored, target)
        if hit is None:
            return None
        _, hit_point = hit
        hits.append(hit_point)
        target = hit_point
    hits.reverse()
    vertices = (tx, *hits, rx)
    for a, b in zip(vertices, vertices[1:]):
        if a.distance_to(b) < 1e-6:
            return None
    penetrated: List[Segment] = []
    leg_walls = [None, *walls, None]
    for i, (a, b) in enumerate(zip(vertices, vertices[1:])):
        ignore = [w for w in (leg_walls[i], leg_walls[i + 1]) if w is not None]
        crossed = reference_walls_crossed(tracer.floorplan, a, b, ignore=ignore)
        if crossed and not tracer.allow_through_wall:
            return None
        penetrated.extend(crossed)
    return TracedPath(
        vertices=vertices,
        kind=KIND_REFLECTION,
        reflecting_walls=walls,
        penetrated_walls=tuple(penetrated),
    )


def _reference_scatterers(tracer: RayTracer, tx: Point, rx: Point) -> List[TracedPath]:
    paths: List[TracedPath] = []
    for scatterer in tracer.floorplan.scatterers:
        s = scatterer.position
        if s.distance_to(tx) < 1e-9 or s.distance_to(rx) < 1e-9:
            continue
        penetrated: List[Segment] = []
        blocked = False
        for a, b in ((tx, s), (s, rx)):
            crossed = reference_walls_crossed(tracer.floorplan, a, b)
            if crossed and not tracer.allow_through_wall:
                blocked = True
                break
            penetrated.extend(crossed)
        if blocked:
            continue
        paths.append(
            TracedPath(
                vertices=(tx, s, rx),
                kind=KIND_SCATTER,
                penetrated_walls=tuple(penetrated),
                scatterer=scatterer,
            )
        )
    return paths


def _reference_diffraction(plan: Floorplan, tx: Point, rx: Point) -> List[TracedPath]:
    """Free wall endpoints both ends see, when the direct line is blocked."""
    if not reference_walls_crossed(plan, tx, rx):
        return []
    paths: List[TracedPath] = []
    seen: set = set()
    for wall in plan.walls:
        for edge in (wall.a, wall.b):
            key = (round(edge.x, 6), round(edge.y, 6))
            if key in seen:
                continue
            seen.add(key)
            if edge.distance_to(tx) < 1e-6 or edge.distance_to(rx) < 1e-6:
                continue
            if any(other is not wall and other.contains_point(edge) for other in plan.walls):
                continue
            if reference_walls_crossed(plan, tx, edge) or reference_walls_crossed(plan, edge, rx):
                continue
            incoming = (edge - tx).normalized()
            outgoing = (rx - edge).normalized()
            cos_bend = max(-1.0, min(1.0, incoming.dot(outgoing)))
            bend = float(np.arccos(cos_bend)) if cos_bend < 1.0 else 0.0
            if bend < 1e-6:
                continue
            paths.append(
                TracedPath(vertices=(tx, edge, rx), kind=KIND_DIFFRACTION, diffraction_angle_rad=bend)
            )
    paths.sort(key=lambda p: p.diffraction_angle_rad)
    return paths[:4]
