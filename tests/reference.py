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

The one-matrix eigen-split (:func:`reference_subspaces`): forward-backward
averaging, symmetrisation, one ``eigh`` and the threshold or MDL order
for one covariance, as ``subspaces`` ran before the split took an AP's
whole covariance stack.

Per-packet ESPRIT (:func:`reference_esprit_packet`): the same front end
and one-matrix split, then (:func:`reference_esprit_paths`) the
shift-invariance solve, ``eig`` and ``inv`` of one packet, each
eigenvalue converted to (AoA, ToF) on its own, and path powers fitted
against a steering matrix built one ``np.kron`` column per path
(:func:`reference_steering_matrix`).

Scalar image-method ray tracing (:func:`reference_trace`): the tracer
before it ran as arrays over all walls -- one wall sequence at a time,
one ``Point`` per image and hit, one ``Segment.crosses`` call per
(leg, wall) pair (:func:`reference_walls_crossed`).

Per-packet trace synthesis (:func:`reference_generate_trace`): the
simulator's loop before it built a trace as one ``(K, M, N)`` stack --
per packet, a faded profile and its CSI summed path by path, the
impairment state, STO ramp, CFO rotation, AWGN drawn with
``rng.normal``, the 8-bit scale-and-round, and the RSSI jitter.

Full-grid peak search (:func:`reference_full_grid_peaks`): a maximum and
minimum filter over every spectrum cell, then one refinement per kept
peak -- the second peak oracle next to :func:`reference_find_peaks_2d`.

Eq. 9 by Nelder-Mead (:func:`reference_nelder_mead_locate`): the global
grid scored by :func:`reference_objective`, then scipy's Nelder-Mead and
a clip to the bounds, as the solver ran before its cached grid and
quadratic refinement.

EM clustering (:func:`reference_kmeans`, :func:`reference_gmm`,
:func:`reference_cluster_estimates`): k-means and the Gaussian mixture
before their Lloyd sums came from one pass over the labels -- a
``labels == j`` mask and ``.mean(axis=0)`` per cluster, the squared
distances computed again in every E-step, ``np.unique(x, axis=0)`` for
the distinct-point count, and one ``np.nonzero`` per cluster label.

Incidence angle (:func:`reference_incidence_cos`): ``Segment.incidence_cos``
in ``Point`` arithmetic, rebuilding the wall's unit normal per call.

ToF-only ranging (:func:`reference_tof_spectrum`,
:func:`reference_tof_estimate`): the ``tof`` tier's delay spectrum
summed one packet at a time, each packet sanitized on its own, and its
earliest-strong-peak rule written out inline.

Antenna-only MUSIC (:func:`reference_music_aoa_spectrum`) and the
``mdtrack`` tier (:func:`reference_mdtrack_estimate`): the covariance,
exchange-matrix averaging and split written out inline, and mdtrack's
per-packet front end and path list, moved from their test files.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy import ndimage, optimize

from repro.channel.chains import ChainOffsets
from repro.channel.csi_model import ChannelSimulator
from repro.channel.impairments import ImpairmentState
from repro.channel.multipath import MultipathProfile
from repro.channel.paths import PropagationPath
from repro.constants import SPEED_OF_LIGHT
from repro.core.clustering import PathCluster, cluster_estimates
from repro.core.direct_path import select_direct_path
from repro.core.esprit import EspritEstimator, _selection_indices
from repro.core.estimator import JointEstimator, PathEstimate
from repro.core.localization import Localizer
from repro.core.music import MusicConfig, mdl_signal_dimension
from repro.core.peaks import SpectrumPeak, merge_close_peaks
from repro.core.sanitize import sanitize_csi
from repro.core.smoothing import SmoothingConfig
from repro.core.steering import SteeringModel
from repro.errors import ClusteringError, EstimationError, GeometryError
from repro.estimators.base import ApEstimate, EstimatedPath
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
from repro.geom.segments import EPS, Segment
from repro.runtime.cache import default_steering_cache
from repro.wifi.arrays import UniformLinearArray
from repro.wifi.csi import CsiFrame, CsiTrace, validate_csi_matrix
from repro.wifi.ofdm import OfdmGrid
from repro.wifi.quantization import QuantizationModel


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


def reference_subspaces(
    cov: np.ndarray, config: MusicConfig = MusicConfig(), num_snapshots: int = 0
) -> Tuple[np.ndarray, np.ndarray, int]:
    """``(E_S, E_N, num_signals)`` of one covariance, one ``eigh`` per call."""
    r = np.asarray(cov, dtype=np.complex128)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise EstimationError(f"covariance must be square, got shape {r.shape}")
    if config.forward_backward:
        flipped = r[::-1, ::-1].conj()
        r = r + flipped
        r /= 2.0
    sym = r + r.conj().T
    sym /= 2.0
    eigenvalues, eigenvectors = np.linalg.eigh(sym)
    eigenvalues = eigenvalues[::-1]
    eigenvectors = eigenvectors[:, ::-1]
    lam_max = float(eigenvalues[0])
    if lam_max <= 0:
        raise EstimationError("covariance has no positive eigenvalues (zero CSI?)")
    if config.use_mdl:
        snapshots = num_snapshots if num_snapshots > 0 else r.shape[0]
        num_signals = mdl_signal_dimension(eigenvalues, snapshots)
    else:
        num_signals = int(
            np.count_nonzero(eigenvalues > config.eigenvalue_threshold_ratio * lam_max)
        )
    num_signals = min(max(num_signals, 1), config.max_paths, r.shape[0] - 1)
    return eigenvectors[:, :num_signals], eigenvectors[:, num_signals:], num_signals


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
    e_signal, e_noise, _ = reference_subspaces(
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

    Raises the packet's :class:`EstimationError` (a degenerate covariance
    or a defective ToF operator).
    """
    csi = validate_csi_matrix(csi)
    if estimator.sanitize:
        csi = reference_sanitize_csi(csi)
    x = reference_smooth_csi(csi, estimator.smoothing)
    e_signal, _, _ = reference_subspaces(
        x @ x.conj().T, estimator.music, num_snapshots=x.shape[1]
    )
    return reference_esprit_paths(estimator, csi, e_signal, packet_index)


def reference_esprit_paths(
    estimator: EspritEstimator,
    csi: np.ndarray,
    e_signal: np.ndarray,
    packet_index: int = 0,
) -> List[PathEstimate]:
    """One packet's ESPRIT paths from its sanitized CSI and signal subspace."""
    tau_j1, tau_j2, theta_j1, theta_j2 = _selection_indices(
        estimator.smoothing.sub_antennas, estimator.smoothing.sub_subcarriers
    )
    e_signal = e_signal[:, : min(len(tau_j1), len(theta_j1)) - 1]
    f_tau = np.linalg.lstsq(e_signal[tau_j1], e_signal[tau_j2], rcond=None)[0]
    f_theta = np.linalg.lstsq(e_signal[theta_j1], e_signal[theta_j2], rcond=None)[0]
    tau_eigs, t = np.linalg.eig(f_tau)
    try:
        t_inv = np.linalg.inv(t)
    except np.linalg.LinAlgError:
        raise EstimationError("ESPRIT pairing failed: defective ToF operator")
    theta_eigs = np.diag(t_inv @ f_theta @ t)
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


def _reference_synthesize_csi(
    paths: Sequence[PropagationPath], array: UniformLinearArray, grid: OfdmGrid
) -> np.ndarray:
    """One packet's clean CSI, summed path by path."""
    freqs = grid.subcarrier_freqs_hz()
    f_c = grid.carrier_freq_hz
    m = np.arange(array.num_antennas)
    csi = np.zeros((array.num_antennas, grid.num_subcarriers), dtype=np.complex128)
    for path in paths:
        sin_theta = np.sin(np.deg2rad(path.aoa_deg))
        tof_phase = np.exp(-2j * np.pi * (freqs - f_c) * path.tof_s)
        aoa_phase = np.exp(
            -2j * np.pi * np.outer(m, freqs) * array.spacing_m * sin_theta / SPEED_OF_LIGHT
        )
        csi += path.gain * aoa_phase * tof_phase[None, :]
    return csi


def _reference_faded(
    sim: ChannelSimulator, profile: MultipathProfile, rng: np.random.Generator
) -> List[PropagationPath]:
    """One packet's fading realization of a multipath profile."""
    paths = []
    for path in profile:
        amp = 10.0 ** (rng.normal(0.0, sim.fading_std_db) / 20.0)
        phase = rng.normal(0.0, sim.fading_phase_std_rad) if sim.fading_phase_std_rad > 0 else 0.0
        paths.append(
            PropagationPath(
                aoa_deg=path.aoa_deg,
                tof_s=path.tof_s,
                gain=path.gain * amp * np.exp(1j * phase),
                kind=path.kind,
                length_m=path.length_m,
            )
        )
    return paths


def _reference_quantize(quantizer: QuantizationModel, csi: np.ndarray) -> np.ndarray:
    """One packet's 8-bit scale-and-round, dequantized."""
    peak = max(np.abs(csi.real).max(initial=0.0), np.abs(csi.imag).max(initial=0.0))
    scale = quantizer.max_level * quantizer.headroom / peak if peak > 0 else np.inf
    if not np.isfinite(scale):
        return csi.copy()
    top = quantizer.max_level
    q_real = np.clip(np.round(csi.real * scale), -top - 1, top)
    q_imag = np.clip(np.round(csi.imag * scale), -top - 1, top)
    return (q_real + 1j * q_imag) / scale


def _reference_impair(
    sim: ChannelSimulator, csi: np.ndarray, state: ImpairmentState, rng: np.random.Generator
) -> np.ndarray:
    """One packet's STO ramp, CFO rotation, AWGN and quantization."""
    n = np.arange(csi.shape[-1])
    sto_ramp = np.exp(-2j * np.pi * sim.grid.subcarrier_spacing_hz * n * state.sto_s)
    out = csi * sto_ramp[None, :]
    if state.cfo_phase_rad:
        out = out * np.exp(1j * state.cfo_phase_rad)
    if np.isfinite(state.snr_db):
        signal_power = float(np.mean(np.abs(out) ** 2))
        if signal_power > 0:
            noise_power = signal_power * 10.0 ** (-state.snr_db / 10.0)
            noise_std = np.sqrt(noise_power / 2.0)
            noise = rng.normal(0.0, noise_std, out.shape) + 1j * rng.normal(
                0.0, noise_std, out.shape
            )
            out = out + noise
    quantizer = sim.impairments.quantizer
    return out if quantizer is None else _reference_quantize(quantizer, out)


def reference_generate_trace(
    sim: ChannelSimulator,
    array: UniformLinearArray,
    num_packets: int,
    rng: np.random.Generator,
    profile: MultipathProfile,
    packet_interval_s: float = 0.1,
    source: str = "target",
    chain: Optional[ChainOffsets] = None,
) -> CsiTrace:
    """``sim.generate_trace`` one packet at a time, every draw in order."""
    fading = sim.fading_std_db > 0 or sim.fading_phase_std_rad > 0
    clean = _reference_synthesize_csi(list(profile), array, sim.grid)
    base_rssi = profile.rssi_dbm(sim.tx_power_dbm)
    frames = []
    for i in range(num_packets):
        if fading:
            clean = _reference_synthesize_csi(_reference_faded(sim, profile, rng), array, sim.grid)
        state = sim.impairments.draw_state(i, rng)
        csi = clean if chain is None else chain.apply(clean)
        csi = _reference_impair(sim, csi, state, rng)
        rssi = base_rssi
        if sim.rssi_jitter_db > 0:
            rssi += rng.normal(0.0, sim.rssi_jitter_db)
        frames.append(
            CsiFrame(
                csi=csi,
                rssi_dbm=float(np.round(rssi)),
                timestamp_s=i * packet_interval_s,
                source=source,
            )
        )
    return CsiTrace(frames)


# ----------------------------------------------------------------------
# Full-grid peak search
# ----------------------------------------------------------------------
def reference_full_grid_peaks(
    spectrum,
    aoa_grid_deg,
    tof_grid_s,
    max_peaks=8,
    min_rel_height_db=20.0,
    neighborhood=3,
    exclude_border=True,
):
    """Test oracle: the full-grid peak search.

    Runs a 3 x 3 (or ``neighborhood``) maximum and minimum filter over
    every cell, then refines the kept peaks one at a time.  Equal powers
    are ordered by row-major grid index.
    """
    spec = np.asarray(spectrum, dtype=float)
    local_max = ndimage.maximum_filter(spec, size=neighborhood, mode="nearest")
    is_peak = (spec >= local_max) & (spec > 0)
    local_min = ndimage.minimum_filter(spec, size=neighborhood, mode="nearest")
    is_peak &= spec > local_min * (1.0 + 1e-12)
    if exclude_border:
        is_peak[0, :] = is_peak[-1, :] = False
        is_peak[:, 0] = is_peak[:, -1] = False

    rows, cols = np.nonzero(is_peak)
    if rows.size == 0:
        return []
    powers = spec[rows, cols]
    order = np.argsort(-powers, kind="stable")
    strongest = powers[order[0]]
    floor = strongest * 10.0 ** (-min_rel_height_db / 10.0)

    peaks = []
    for idx in order:
        if len(peaks) >= max_peaks:
            break
        power = float(powers[idx])
        if power < floor:
            break
        i, j = int(rows[idx]), int(cols[idx])
        aoa = _full_grid_refine_axis(spec, aoa_grid_deg, i, j, axis=0)
        tof = _full_grid_refine_axis(spec, tof_grid_s, i, j, axis=1)
        peaks.append(SpectrumPeak(aoa_deg=float(aoa), tof_s=float(tof), power=power))
    return peaks


def _full_grid_refine_axis(spec, grid, i, j, axis):
    n = spec.shape[axis]
    k = i if axis == 0 else j
    if k == 0 or k == n - 1:
        return float(grid[k])
    if axis == 0:
        left, center, right = spec[i - 1, j], spec[i, j], spec[i + 1, j]
    else:
        left, center, right = spec[i, j - 1], spec[i, j], spec[i, j + 1]
    logs = np.log(np.maximum([left, center, right], 1e-300))
    offset = _full_grid_parabolic_offset(logs[0], logs[1], logs[2])
    step = grid[k + 1] - grid[k] if offset >= 0 else grid[k] - grid[k - 1]
    return float(grid[k] + offset * step)


def _full_grid_parabolic_offset(left, center, right):
    denom = left - 2.0 * center + right
    if denom >= -1e-300:
        return 0.0
    offset = 0.5 * (left - right) / denom
    return float(np.clip(offset, -0.5, 0.5))


# ----------------------------------------------------------------------
# Eq. 9 by Nelder-Mead
# ----------------------------------------------------------------------
def reference_objective(localizer, candidates, obs, weights):
    """Test oracle: Eq. 9 as the Nelder-Mead solver computed it.

    The geometry of every (candidate, AP) pair in one broadcast and the
    angle residuals wrapped with ``np.mod``; the solver's cached grid must
    match it bit for bit, so its best cell is the one this picks.
    """
    positions = np.array([o.array.position for o in obs], dtype=float)
    normals = np.array([o.array.normal_deg for o in obs], dtype=float)
    delta = candidates[:, None, :] - positions[None, :, :]
    dist = np.maximum(np.linalg.norm(delta, axis=2), 1e-3)
    bearing = np.degrees(np.arctan2(delta[..., 1], delta[..., 0]))
    pred_aoa = (bearing - normals[None, :] + 180.0) % 360.0 - 180.0
    measured_aoa = np.array([o.aoa_deg for o in obs], dtype=float)
    measured_rssi = np.array([o.rssi_dbm for o in obs], dtype=float)

    aoa_diff = (pred_aoa - measured_aoa[None, :] + 180.0) % 360.0 - 180.0
    if localizer.aoa_residual_cap_deg > 0:
        cap = localizer.aoa_residual_cap_deg
        aoa_diff = np.clip(aoa_diff, -cap, cap)
    aoa_cost = np.sum(weights[None, :] * aoa_diff**2, axis=1) * localizer.aoa_weight

    rssi_cost = np.zeros(len(candidates))
    rssi_ok = np.isfinite(measured_rssi)
    if localizer.rssi_weight > 0 and np.count_nonzero(rssi_ok) >= 2:
        w = weights[rssi_ok][None, :]
        p = measured_rssi[rssi_ok][None, :]
        x = -10.0 * np.log10(dist[:, rssi_ok])
        p0, gamma = Localizer._profile_path_loss(x, p, w)
        resid = p - (p0[:, None] + gamma[:, None] * x)
        rssi_cost = np.sum(w * resid**2, axis=1) * localizer.rssi_weight
    return aoa_cost + rssi_cost


def reference_nelder_mead_locate(localizer, observations):
    """Test oracle: the global grid, then Nelder-Mead, then a clip to the bounds.

    Returns (clipped solution, its objective, unclipped Nelder-Mead point).
    """
    obs = [o for o in observations if np.isfinite(o.aoa_deg)]
    weights = localizer._weights(obs)
    cells = localizer._grid_points()
    start = cells[int(np.argmin(reference_objective(localizer, cells, obs, weights)))]
    result = optimize.minimize(
        lambda v: reference_objective(localizer, v[None, :], obs, weights)[0],
        start,
        method="Nelder-Mead",
        options={"xatol": 1e-3, "fatol": 1e-9, "maxiter": 400},
    )
    solution = np.clip(result.x, localizer.bounds[:2], localizer.bounds[2:])
    objective = float(reference_objective(localizer, solution[None, :], obs, weights)[0])
    return solution, objective, result.x


# ----------------------------------------------------------------------
# EM clustering
# ----------------------------------------------------------------------
def reference_kmeans(
    points: np.ndarray,
    rng: Optional[np.random.Generator] = None,
    num_clusters: int = 5,
    max_iter: int = 100,
    tol: float = 1e-6,
) -> Tuple[np.ndarray, np.ndarray]:
    """``KMeans(num_clusters, max_iter, tol).fit(points, rng)`` with a mask per cluster."""
    x = _reference_validate_points(points)
    rng = np.random.default_rng(0) if rng is None else rng
    k = min(num_clusters, len(np.unique(x, axis=0)))
    centers = _reference_kmeanspp_init(x, k, rng)
    labels = np.zeros(len(x), dtype=int)
    for _ in range(max_iter):
        dists = _reference_sq_distances(x, centers)
        labels = np.argmin(dists, axis=1)
        new_centers = centers.copy()
        for j in range(k):
            members = x[labels == j]
            if len(members):
                new_centers[j] = members.mean(axis=0)
        shift = float(np.max(np.linalg.norm(new_centers - centers, axis=1)))
        centers = new_centers
        if shift <= tol:
            break
    return labels, centers


def _reference_validate_points(points: np.ndarray) -> np.ndarray:
    x = np.asarray(points, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ClusteringError(f"points must be a non-empty (n, d) array, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ClusteringError("points contain non-finite values")
    return x


def _reference_sq_distances(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    diff = x[:, None, :] - centers[None, :, :]
    return np.sum(diff**2, axis=2)


def _reference_kmeanspp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    centers = [x[rng.integers(len(x))]]
    while len(centers) < k:
        d2 = np.min(_reference_sq_distances(x, np.asarray(centers)), axis=1)
        total = d2.sum()
        if total <= 0:
            centers.append(x[rng.integers(len(x))])
            continue
        probs = d2 / total
        centers.append(x[rng.choice(len(x), p=probs)])
    return np.asarray(centers, dtype=float)


def reference_gmm(
    points: np.ndarray,
    rng: Optional[np.random.Generator] = None,
    num_components: int = 5,
    max_iter: int = 200,
    tol: float = 1e-7,
    min_var: float = 1e-6,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``GaussianMixture(...).fit(points, rng)`` computing every E-step's distances afresh."""
    x = _reference_validate_points(points)
    rng = np.random.default_rng(0) if rng is None else rng
    n, d = x.shape
    # Initialize from k-means.
    labels, centers = reference_kmeans(x, rng, num_clusters=num_components)
    k = len(centers)
    means = centers.copy()
    variances = np.empty((k, d))
    weights = np.empty(k)
    for j in range(k):
        members = x[labels == j]
        weights[j] = max(len(members), 1) / n
        if len(members) > 1:
            variances[j] = np.maximum(members.var(axis=0), min_var)
        else:
            variances[j] = np.maximum(x.var(axis=0), min_var)
    weights /= weights.sum()

    prev_ll = -np.inf
    resp = np.zeros((n, k))
    for _ in range(max_iter):
        # E step: log responsibilities under diagonal Gaussians.
        log_prob = -0.5 * (
            np.sum(
                (x[:, None, :] - means[None, :, :]) ** 2 / variances[None, :, :],
                axis=2,
            )
            + np.sum(np.log(2.0 * np.pi * variances), axis=1)[None, :]
        )
        log_prob += np.log(np.maximum(weights, 1e-300))[None, :]
        log_norm = _reference_logsumexp(log_prob, axis=1)
        resp = np.exp(log_prob - log_norm[:, None])
        ll = float(np.mean(log_norm))
        # M step.
        nk = resp.sum(axis=0) + 1e-12
        weights = nk / n
        means = (resp.T @ x) / nk[:, None]
        diff2 = (x[:, None, :] - means[None, :, :]) ** 2
        variances = np.maximum(np.einsum("nk,nkd->kd", resp, diff2) / nk[:, None], min_var)
        if abs(ll - prev_ll) < tol:
            break
        prev_ll = ll
    labels = np.argmax(resp, axis=1)
    return labels, means, variances


def _reference_logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    peak = np.max(a, axis=axis, keepdims=True)
    return (peak + np.log(np.sum(np.exp(a - peak), axis=axis, keepdims=True))).squeeze(axis)


def _reference_normalize_columns(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    for j in range(x.shape[1]):
        col = x[:, j]
        span = col.max() - col.min()
        if span > 0:
            out[:, j] = (col - col.min()) / span
    return out


def reference_cluster_estimates(
    estimates: Sequence[PathEstimate],
    num_clusters: int = 5,
    method: str = "gmm",
    rng: Optional[np.random.Generator] = None,
    min_cluster_size: int = 1,
) -> List[PathCluster]:
    """``cluster_estimates`` with one ``np.nonzero`` per cluster label."""
    points_list = list(estimates)
    if not points_list:
        raise ClusteringError("no path estimates to cluster")
    raw = np.array([[e.aoa_deg, e.tof_s] for e in points_list], dtype=float)
    powers = np.array([e.power for e in points_list], dtype=float)
    normalized = _reference_normalize_columns(raw)
    rng = np.random.default_rng(0) if rng is None else rng

    k = min(num_clusters, len(points_list))
    if method == "gmm":
        labels, _, _ = reference_gmm(normalized, rng, num_components=k)
    elif method == "kmeans":
        labels, _ = reference_kmeans(normalized, rng, num_clusters=k)
    else:
        raise ClusteringError(f"unknown clustering method {method!r}")

    clusters: List[PathCluster] = []
    for label in np.unique(labels):
        idx = np.nonzero(labels == label)[0]
        if len(idx) < min_cluster_size:
            continue
        aoas = raw[idx, 0]
        tofs = raw[idx, 1]
        clusters.append(
            PathCluster(
                mean_aoa_deg=float(aoas.mean()),
                mean_tof_s=float(tofs.mean()),
                var_aoa_deg2=float(aoas.var()),
                var_tof_s2=float(tofs.var()),
                count=int(len(idx)),
                mean_power=float(powers[idx].mean()),
                member_indices=tuple(int(i) for i in idx),
            )
        )
    if not clusters:
        raise ClusteringError(
            f"all clusters smaller than min_cluster_size={min_cluster_size}"
        )
    clusters.sort(key=lambda c: -c.count)
    return clusters


# ----------------------------------------------------------------------
# Incidence angle
# ----------------------------------------------------------------------
def reference_incidence_cos(wall: Segment, incoming_from: PointLike, hit_point: PointLike) -> float:
    """``wall.incidence_cos(incoming_from, hit_point)`` in ``Point`` arithmetic."""
    v = as_point(hit_point) - as_point(incoming_from)
    n = v.norm()
    if n < EPS:
        raise GeometryError("incidence ray has zero length")
    return abs((v / n).dot(wall.normal))


def reference_tof_spectrum(estimator, array: UniformLinearArray, trace: CsiTrace) -> np.ndarray:
    """The ``tof`` tier's delay spectrum, one packet at a time."""
    config = estimator.context.config
    _model, _tof_grid, conj_o = estimator._model_for(array)
    spectrum = None
    for frame in trace[: config.packets_per_fix]:
        csi = sanitize_csi(frame.csi) if config.sanitize else frame.csi
        packet = np.sum(np.abs(csi @ conj_o.T) ** 2, axis=0)
        spectrum = packet if spectrum is None else spectrum + packet
    return spectrum


def reference_tof_estimate(estimator, array: UniformLinearArray, trace: CsiTrace) -> ApEstimate:
    """The ``tof`` tier's ``estimate_ap`` with an inline front end and peak rule."""
    used = trace[: estimator.context.config.packets_per_fix]
    _model, tof_grid, _conj_o = estimator._model_for(array)
    spectrum = reference_tof_spectrum(estimator, array, trace)
    peak = float(spectrum.max())
    threshold = peak * 10.0 ** (-10.0 / 10.0)
    interior = (spectrum[1:-1] >= spectrum[:-2]) & (spectrum[1:-1] >= spectrum[2:])
    candidates = np.nonzero(interior & (spectrum[1:-1] >= threshold))[0] + 1
    best = int(candidates[0]) if candidates.size else int(np.argmax(spectrum))
    confidence = float(spectrum[best] / peak)
    path = EstimatedPath(aoa_deg=0.0, tof_s=float(tof_grid[best]), weight=confidence)
    return ApEstimate(
        array=array,
        paths=(path,),
        confidence=confidence,
        rssi_dbm=used.median_rssi_dbm(),
    )


def reference_music_aoa_spectrum(est, csi: np.ndarray) -> np.ndarray:
    """Test oracle: antenna-only MUSIC with an inline covariance and split.

    Forward-backward averaging is the exchange-matrix product
    ``(R + J R* J) / 2`` and the eigen-split is written out, so the
    shared :func:`~repro.core.music.subspaces` path can be pinned bit
    for bit.
    """
    csi = np.asarray(csi, dtype=np.complex128)
    if est.sanitize:
        csi = sanitize_csi(csi)
    m = csi.shape[0]
    sub = est.config.spatial_smoothing_subarray
    if sub:
        csi = np.concatenate([csi[i : i + sub, :] for i in range(m - sub + 1)], axis=1)
        m = sub
    cov = csi @ csi.conj().T
    if est.config.forward_backward:
        exchange = np.eye(m)[::-1]
        cov = (cov + exchange @ cov.conj() @ exchange) / 2.0
    eigenvalues, eigenvectors = np.linalg.eigh((cov + cov.conj().T) / 2.0)
    eigenvalues = eigenvalues[::-1]
    eigenvectors = eigenvectors[:, ::-1]
    num_signals = int(
        np.sum(eigenvalues > est.config.eigenvalue_threshold_ratio * eigenvalues[0])
    )
    e_noise = eigenvectors[:, int(np.clip(num_signals, 1, m - 1)) :]
    steering = est.model.subarray_model(m, 1).antenna_vector(est.config.aoa_grid())
    proj = steering.conj() @ e_noise
    return 1.0 / np.maximum(np.sum(np.abs(proj) ** 2, axis=1) / m, 1e-18)


def reference_mdtrack_estimate(
    estimator, array: UniformLinearArray, trace: CsiTrace
) -> ApEstimate:
    """Test oracle: the mdtrack tier with an inline front end and path list."""
    config = estimator.context.config
    used = trace[: config.packets_per_fix]
    model = estimator._model_for(array)
    estimates = []
    for index, frame in enumerate(used):
        csi = sanitize_csi(frame.csi) if config.sanitize else frame.csi
        estimates.extend(estimator._packet_paths(model, csi, index))
    clusters = cluster_estimates(
        estimates,
        num_clusters=config.num_clusters,
        method="kmeans",
        rng=np.random.default_rng(estimator.context.seed),
        min_cluster_size=max(
            config.min_cluster_size,
            int(np.ceil(config.min_cluster_fraction * len(used))),
        ),
    )
    direct = select_direct_path(clusters, config.likelihood)
    paths = [EstimatedPath(direct.aoa_deg, direct.tof_s, direct.likelihood)]
    for cluster, likelihood in zip(direct.all_clusters, direct.all_likelihoods):
        if cluster is not direct.cluster:
            paths.append(
                EstimatedPath(cluster.mean_aoa_deg, cluster.mean_tof_s, likelihood)
            )
    return ApEstimate(
        array=array,
        paths=tuple(paths),
        confidence=float(direct.likelihood),
        rssi_dbm=used.median_rssi_dbm(),
    )
