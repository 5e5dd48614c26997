"""MUSIC on the smoothed CSI matrix (paper Alg. 2 lines 5-6).

Given the smoothed measurement matrix X, form the covariance ``X X^H``,
split its eigenvectors into signal and noise subspaces, and evaluate the
2-D pseudospectrum

    P(theta, tau) = 1 / (a^H(theta, tau) E_N E_N^H a(theta, tau))

whose peaks are the multipath (AoA, ToF) estimates.  The noise subspace is
chosen by eigenvalue threshold, as the paper specifies ("eigenvalues that
are smaller than a threshold"); an MDL-based model-order estimate is also
provided for ablations.

The steering vector factorizes as a Kronecker product (see
:mod:`repro.core.steering`), so the spectrum denominator
``a^H E E^H a`` splits over the M x M blocks of the projector ``E E^H``:
one small matmul per packet forms ``omega^H P_mm' omega`` for every ToF,
and one real GEMM against ``conj(phi_m) phi_m'`` covers the whole
(theta, tau) grid.  Grid-sized work is A * T * M^2, independent of the
subspace rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple, Union

import numpy as np

from repro.analysis.contracts import contract
from repro.core.indexcache import grid_range
from repro.core.steering import SteeringModel
from repro.errors import ConfigurationError, EstimationError

if TYPE_CHECKING:  # the cache imports this module
    from repro.runtime.cache import SteeringGrids


@dataclass(frozen=True)
class MusicConfig:
    """MUSIC subspace/grid parameters.

    Attributes
    ----------
    eigenvalue_threshold_ratio:
        Eigenvectors with eigenvalue below ``ratio * lambda_max`` form the
        noise subspace (paper's threshold rule).  Coherent multipath
        compresses into few dominant eigenvalues even after smoothing, so
        the threshold is deliberately generous (25 dB down): extra signal
        dimensions cost spurious peaks — which the clustering stage
        absorbs — while a missed dimension loses a real path.
    max_paths:
        Upper bound on signal-subspace dimension; at least one noise
        dimension is always kept.
    aoa_grid_deg:
        (min, max, step) of the AoA search grid in degrees.
    tof_grid_s:
        (min, max, step) of the ToF search grid in seconds.  Sanitization
        removes the *mean* delay, so relative ToFs extend below zero.
    use_mdl:
        If True, the signal dimension comes from the MDL criterion instead
        of the eigenvalue threshold.
    forward_backward:
        Apply forward-backward averaging to the smoothed covariance
        (valid here: the joint steering manifold is conjugate-symmetric
        up to a unit-modulus factor, so J R* J has the same signal
        subspace).  Improves decorrelation of coherent paths.
    """

    eigenvalue_threshold_ratio: float = 0.003
    max_paths: int = 10
    aoa_grid_deg: Tuple[float, float, float] = (-90.0, 90.0, 1.0)
    tof_grid_s: Tuple[float, float, float] = (-100e-9, 400e-9, 2.5e-9)
    use_mdl: bool = False
    forward_backward: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.eigenvalue_threshold_ratio < 1.0:
            raise ConfigurationError(
                "eigenvalue_threshold_ratio must be in (0, 1), got "
                f"{self.eigenvalue_threshold_ratio}"
            )
        if self.max_paths < 1:
            raise ConfigurationError(f"max_paths must be >= 1, got {self.max_paths}")
        for name, grid in (("aoa", self.aoa_grid_deg), ("tof", self.tof_grid_s)):
            lo, hi, step = grid
            if hi <= lo or step <= 0:
                raise ConfigurationError(f"invalid {name} grid {grid}")

    def aoa_grid(self) -> np.ndarray:
        lo, hi, step = self.aoa_grid_deg
        return grid_range(lo, hi + step / 2, step)

    def tof_grid(self) -> np.ndarray:
        lo, hi, step = self.tof_grid_s
        return grid_range(lo, hi + step / 2, step)


@contract(cov="(S,S)", returns="(S,S) complex128")
def forward_backward_average(cov: np.ndarray) -> np.ndarray:
    """Forward-backward average ``(R + J R* J) / 2`` of a covariance.

    J is the exchange (reversal) matrix.  For the Kronecker-structured
    steering vectors of Eq. 7, ``J conj(a(theta, tau))`` equals
    ``a(theta, tau)`` times a unit-modulus scalar, so the averaged
    covariance keeps the same signal subspace while decorrelating
    coherent arrivals.
    """
    return _forward_backward(np.asarray(cov, dtype=np.complex128))


def _forward_backward(r: np.ndarray) -> np.ndarray:
    """:func:`forward_backward_average` of every matrix in a ``(..., S, S)`` stack."""
    avg = r[..., ::-1, ::-1].conj()  # fresh array: in-place ops cannot alias `r`
    avg += r
    avg /= 2.0
    return avg


@contract(smoothed="(K,S,C)", returns="(K,S,S) complex128")
def covariances(smoothed: np.ndarray) -> np.ndarray:
    """X X^H of every smoothed matrix in a ``(K, S, C)`` stack.

    One batched matmul; packet ``k`` of the result is
    :func:`covariance` of ``smoothed[k]``, element for element.
    """
    x = np.asarray(smoothed, dtype=np.complex128)
    if x.ndim != 3:
        raise EstimationError(f"measurement stack must be 3-D, got shape {x.shape}")
    return x @ x.conj().transpose(0, 2, 1)


@contract(returns="(S,S) complex128")
def covariance(smoothed: np.ndarray) -> np.ndarray:
    """X X^H for a smoothed measurement matrix (sensors x snapshots)."""
    x = np.asarray(smoothed, dtype=np.complex128)
    if x.ndim != 2:
        raise EstimationError(f"measurement matrix must be 2-D, got shape {x.shape}")
    return covariances(x[None])[0]


@contract(eigenvalues="(S)", num_snapshots="int", returns="int")
def mdl_signal_dimension(eigenvalues: np.ndarray, num_snapshots: int) -> int:
    """Model order via the MDL criterion (Wax-Kailath).

    ``eigenvalues`` must be sorted descending.  Returns the estimated
    number of signals (at least 1, at most len - 1).
    """
    lam = np.asarray(eigenvalues, dtype=float)
    lam = np.maximum(lam, 1e-300)
    p = lam.size
    n = max(num_snapshots, 1)
    best_k, best_score = 1, np.inf
    for k in range(0, p):
        tail = lam[k:]
        m = p - k
        geo = np.exp(np.mean(np.log(tail)))
        arith = np.mean(tail)
        if arith <= 0:
            continue
        log_lik = -n * m * np.log(geo / arith)
        penalty = 0.5 * k * (2 * p - k) * np.log(n)
        score = log_lik + penalty
        if score < best_score:
            best_score, best_k = score, k
    return int(min(max(best_k, 1), p - 1))


#: One covariance's result from :func:`eigen_splits`: its eigenvectors in
#: descending eigenvalue order and its signal dimension, or the
#: :class:`EstimationError` that stopped it.
EigenSplit = Union[Tuple[np.ndarray, int], EstimationError]


def eigen_splits(
    covs: np.ndarray,
    config: MusicConfig = MusicConfig(),
    num_snapshots: int = 0,
) -> List[EigenSplit]:
    """Signal/noise eigen-split of every covariance in a ``(K, S, S)`` stack.

    Forward-backward averaging, symmetrisation and ``eigh`` run once
    over the stack, the threshold order is one count per row, and MDL
    (``config.use_mdl``) runs per covariance.  Returns one
    :data:`EigenSplit` per covariance: the first ``num_signals`` of its
    eigenvectors span the signal subspace, the rest the noise subspace.
    A covariance with no positive eigenvalue (all-zero CSI) fails alone;
    when the stacked ``eigh`` raises, it re-runs one covariance at a
    time, so a decomposition that fails also fails only its own entry.

    Each entry equals the K = 1 call on that covariance bit for bit:
    ``eigh`` is a LAPACK gufunc that runs the same routine on each
    matrix, and everything else is elementwise.
    """
    covs = np.asarray(covs, dtype=np.complex128)
    # In place on fresh arrays, so the stack holds few (K, S, S) temporaries;
    # addition commutes exactly, so the sums are bit for bit R + R^H.
    r = _forward_backward(covs) if config.forward_backward else covs
    sym = r.conj().transpose(0, 2, 1)
    sym += r
    sym /= 2.0
    del r
    try:
        # eigh returns ascending eigenvalues for Hermitian input.
        eigenvalues, eigenvectors = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        if len(covs) > 1:
            return [eigen_splits(cov[None], config, num_snapshots)[0] for cov in covs]
        return [EstimationError(f"covariance eigen-decomposition failed: {exc}")]
    eigenvalues = eigenvalues[:, ::-1]
    eigenvectors = eigenvectors[:, :, ::-1]
    lam_max = eigenvalues[:, 0]
    size = covs.shape[1]
    if config.use_mdl:
        snapshots = num_snapshots if num_snapshots > 0 else size
        orders = [mdl_signal_dimension(row, snapshots) for row in eigenvalues]
    else:
        above = eigenvalues > (config.eigenvalue_threshold_ratio * lam_max)[:, None]
        orders = np.count_nonzero(above, axis=1).tolist()
    limit = min(config.max_paths, size - 1)
    return [
        EstimationError("covariance has no positive eigenvalues (zero CSI?)")
        if peak <= 0
        else (vectors, min(max(order, 1), limit))
        for vectors, order, peak in zip(eigenvectors, orders, lam_max.tolist())
    ]


def subspaces(
    cov: np.ndarray,
    config: MusicConfig = MusicConfig(),
    num_snapshots: int = 0,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Signal/noise eigen-decomposition of a covariance matrix.

    Returns ``(E_S, E_N, num_signals)`` where E_S holds the ``num_signals``
    dominant eigenvectors and E_N the rest.  Raises
    :class:`EstimationError` if the covariance is degenerate (all-zero)
    or its eigen-decomposition fails.  The K = 1 call of
    :func:`eigen_splits`.
    """
    r = np.asarray(cov, dtype=np.complex128)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise EstimationError(f"covariance must be square, got shape {r.shape}")
    (split,) = eigen_splits(r[None], config, num_snapshots)
    if isinstance(split, EstimationError):
        raise split
    vectors, num_signals = split
    return vectors[:, :num_signals], vectors[:, num_signals:], num_signals


def noise_subspace(
    cov: np.ndarray,
    config: MusicConfig = MusicConfig(),
    num_snapshots: int = 0,
) -> Tuple[np.ndarray, int]:
    """Noise-subspace basis E_N of a covariance matrix.

    Returns ``(E_N, num_signals)`` where E_N has shape
    (num_sensors, num_noise_dims) and ``num_signals`` is the estimated
    path count.
    """
    _, e_noise, num_signals = subspaces(cov, config, num_snapshots)
    return e_noise, num_signals


@contract(phi="(A,M)", returns="(A,2*M*M) float64")
def steering_weights(phi: np.ndarray) -> np.ndarray:
    """The real ``(A, 2 M^2)`` grid factor of the projector-form spectrum.

    Row ``a`` holds ``[Re w_a, -Im w_a]`` with
    ``w_a = conj(phi_m) phi_m'`` over every antenna pair ``(m, m')``, so
    that ``Re(W Q) = [Re W, -Im W] @ [Re Q; Im Q]`` (see
    :func:`_projected_energy`).  It depends only on the AoA grid, so
    :class:`repro.runtime.cache.SteeringCache` keeps one per grid.
    """
    phi = np.asarray(phi)
    m = phi.shape[1]
    w = (phi.conj()[:, :, None] * phi[:, None, :]).reshape(-1, m * m)  # (A, M*M)
    return np.concatenate((w.real, -w.imag), axis=1)


def _projected_energy(
    basis: np.ndarray,
    model: SteeringModel,
    omega: np.ndarray,
    omega_conj: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """``|E^H a(theta, tau)|^2`` over the grid, in projector form.

    ``sum_k |e_k^H a|^2 = a^H P a`` with ``P = E E^H``.  Since
    ``a = phi (x) omega``, splitting P into M x M blocks ``P_mm'`` of
    N x N gives ``a^H P a = sum_mm' conj(phi_m) phi_m' q_mm'(tau)`` with
    ``q_mm'(tau) = omega^H P_mm' omega``.  Grid-sized work is then one
    real (A, 2M^2) x (2M^2, T) product against ``weights``
    (:func:`steering_weights`), independent of the rank K.  ``omega`` is
    the (T, N) subcarrier steering matrix and ``omega_conj`` its
    conjugate.  Returns a fresh (A, T) float array of raw energies, not
    yet normalized by ``|a|^2 = M N`` (see :class:`EnergyMap`).
    """
    basis = np.asarray(basis, dtype=np.complex128)
    m, n = model.num_antennas, model.num_subcarriers
    if basis.ndim != 2 or basis.shape[0] != m * n:
        raise EstimationError(
            f"subspace basis has shape {basis.shape} but the steering "
            f"model describes {m}x{n}={m * n} sensors"
        )
    # Blocks laid out (N, M*M*N) so one matmul applies every P_mm' to
    # conj(omega); the row-wise dot with omega finishes omega^H P_mm' omega.
    blocks = (basis @ basis.conj().T).reshape(m, n, m, n).transpose(1, 0, 2, 3)
    half = (omega_conj @ blocks.reshape(n, m * m * n)).reshape(-1, m * m, n)
    q = (half * omega[:, None, :]).sum(axis=2).T  # (M*M, T)
    # a^H P a is real (P is Hermitian): Re(W Q) = Re W Re Q - Im W Im Q.
    return weights @ np.concatenate((q.real, q.imag))


@dataclass(frozen=True)
class EnergyMap:
    """The elementwise map from raw projector energy to spectrum values.

    For a noise basis the pseudospectrum is ``1 / max(e / MN, 1e-18)``;
    for a signal basis the complement identity makes it
    ``1 / max(1 - e / MN, 1e-18)``.  Dividing by ``|a|^2 = M N`` makes
    spectra comparable across configurations.  Every step is one
    correctly rounded elementwise operation, so mapping any subset of a
    grid's energies gives the bits that mapping the whole grid gives
    there; and the map is monotone (non-decreasing for a signal basis,
    non-increasing for a noise basis), so the peak search can run on the
    energies (:func:`repro.core.peaks.peak_candidates`).

    Attributes
    ----------
    sensors:
        ``M N``, the squared norm of the steering vector.
    from_signal:
        True when the energies come from the signal basis.
    """

    sensors: int
    from_signal: bool

    @property
    def increasing(self) -> bool:
        """True when larger energy maps to a larger spectrum value."""
        return self.from_signal

    def __call__(self, energy: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Spectrum values of ``energy`` (into ``out``, which may be ``energy``)."""
        values = np.divide(energy, self.sensors, out=out)
        if self.from_signal:
            np.subtract(1.0, values, out=values)
        np.maximum(values, 1e-18, out=values)
        return np.divide(1.0, values, out=values)

    def bound(self, threshold: float) -> float:
        """An energy bound every cell mapping to ``>= threshold`` meets.

        Such a cell's energy is ``>=`` the bound when :attr:`increasing`,
        else ``<=`` it.  The bound inverts the map with a 1e-12 relative
        margin, far above the few roundings it undoes, so the cells it
        admits are a superset; callers test the mapped values exactly.
        """
        if threshold <= 0:
            return -np.inf if self.increasing else np.inf
        inverse = 1.0 / float(threshold)
        if self.from_signal:
            return self.sensors * (1.0 - inverse) - self.sensors * 1e-12 * (1.0 + inverse)
        return self.sensors * inverse * (1.0 + 1e-12)


def _grid_energy(
    basis: np.ndarray,
    model: SteeringModel,
    aoa_grid_deg: np.ndarray,
    tof_grid_s: np.ndarray,
    phi: Optional[np.ndarray],
    omega: Optional[np.ndarray],
) -> np.ndarray:
    """:func:`_projected_energy` on explicit grids (steering built if absent)."""
    if phi is None:
        phi = model.antenna_vector(np.asarray(aoa_grid_deg, dtype=float))  # (A, M)
    if omega is None:
        omega = model.subcarrier_vector(np.asarray(tof_grid_s, dtype=float))  # (T, N)
    return _projected_energy(basis, model, omega, omega.conj(), steering_weights(phi))


@contract(
    e_noise="(MN,K)",
    phi="(A,M)",
    omega="(T,N)",
    returns="(A,T) float64",
)
def music_spectrum(
    e_noise: np.ndarray,
    model: SteeringModel,
    aoa_grid_deg: np.ndarray,
    tof_grid_s: np.ndarray,
    phi: np.ndarray = None,
    omega: np.ndarray = None,
) -> np.ndarray:
    """Evaluate the 2-D MUSIC pseudospectrum on a (theta, tau) grid.

    Parameters
    ----------
    e_noise:
        Noise-subspace basis, shape (M*N, K), antenna-major sensor order.
    model:
        Steering model of the (sub)array the rows correspond to.
    aoa_grid_deg, tof_grid_s:
        1-D grids.
    phi, omega:
        Optional precomputed ``model.antenna_vector(aoa_grid_deg)`` /
        ``model.subcarrier_vector(tof_grid_s)`` matrices (see
        :class:`repro.runtime.cache.SteeringCache`); computed here when
        omitted.

    Returns
    -------
    numpy.ndarray
        Spectrum of shape (len(aoa_grid_deg), len(tof_grid_s)); larger is
        more likely a path.
    """
    energy = _grid_energy(e_noise, model, aoa_grid_deg, tof_grid_s, phi, omega)
    return EnergyMap(model.num_sensors, from_signal=False)(energy, out=energy)


@contract(
    e_signal="(MN,K)",
    phi="(A,M)",
    omega="(T,N)",
    returns="(A,T) float64",
)
def music_spectrum_from_signal(
    e_signal: np.ndarray,
    model: SteeringModel,
    aoa_grid_deg: np.ndarray,
    tof_grid_s: np.ndarray,
    phi: np.ndarray = None,
    omega: np.ndarray = None,
) -> np.ndarray:
    """MUSIC spectrum computed from the *signal* subspace.

    Identical to :func:`music_spectrum` via the complement identity
    ``|E_N^H a|^2 = |a|^2 - |E_S^H a|^2`` (E_S, E_N together form an
    orthonormal basis).  The estimator uses whichever basis is smaller.
    ``phi``/``omega`` behave as in :func:`music_spectrum`.
    """
    energy = _grid_energy(e_signal, model, aoa_grid_deg, tof_grid_s, phi, omega)
    return EnergyMap(model.num_sensors, from_signal=True)(energy, out=energy)


def subspace_energy(
    e_signal: np.ndarray,
    e_noise: np.ndarray,
    model: SteeringModel,
    grids: "SteeringGrids",
) -> Tuple[np.ndarray, EnergyMap]:
    """Raw projector energy on cached grids of whichever basis is smaller.

    Returns the (A, T) energies of ``e_signal`` when it has no more
    columns than ``e_noise``, else of ``e_noise``, with the
    :class:`EnergyMap` that turns them into the MUSIC spectrum.  The
    grid factors (``conj(omega)`` and :func:`steering_weights`) come
    from the cache instead of being rebuilt per packet.
    """
    from_signal = e_signal.shape[1] <= e_noise.shape[1]
    energy = _projected_energy(
        e_signal if from_signal else e_noise,
        model,
        grids.omega,
        grids.omega_conj,
        grids.weights,
    )
    return energy, EnergyMap(model.num_sensors, from_signal)


def subspace_spectrum(
    e_signal: np.ndarray,
    e_noise: np.ndarray,
    model: SteeringModel,
    grids: "SteeringGrids",
) -> np.ndarray:
    """MUSIC spectrum on cached grids from whichever basis is smaller.

    :func:`subspace_energy` mapped over the whole grid: equals
    :func:`music_spectrum_from_signal` of ``e_signal`` when it has no
    more columns than ``e_noise``, else :func:`music_spectrum` of
    ``e_noise``, both on ``grids``' AoA/ToF grids.
    """
    energy, to_spectrum = subspace_energy(e_signal, e_noise, model, grids)
    return to_spectrum(energy, out=energy)


@contract(e_noise="(MN,K)", aoa_deg="float", tof_s="float", returns="float")
def spectrum_value(
    e_noise: np.ndarray, model: SteeringModel, aoa_deg: float, tof_s: float
) -> float:
    """Pseudospectrum at a single (theta, tau) point."""
    return float(music_spectrum(e_noise, model, [aoa_deg], [tof_s])[0, 0])
