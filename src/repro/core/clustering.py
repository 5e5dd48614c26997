"""Clustering of multi-packet (AoA, ToF) estimates — paper Sec. 3.2.3.

Estimates from the same physical path across packets cluster together in
the 2-D (AoA, ToF) plane; the cluster tightness feeds the direct-path
likelihood.  The paper uses "Gaussian Mean clustering ... with five
clusters"; we implement an EM Gaussian mixture (diagonal covariances,
k-means++ initialization) plus a plain k-means fallback, both from scratch
(no sklearn), and normalize both axes to a common range as the paper's
Fig. 5(c) does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.estimator import PathEstimate
from repro.errors import ClusteringError

#: Paper's cluster count: "typically we see at best five significant paths".
DEFAULT_NUM_CLUSTERS = 5


# ----------------------------------------------------------------------
# K-means
# ----------------------------------------------------------------------
@dataclass
class KMeans:
    """Plain k-means with k-means++ seeding.

    Attributes
    ----------
    num_clusters:
        Target k (at least 1); silently reduced if there are fewer
        distinct points.
    max_iter:
        Lloyd iteration cap.
    tol:
        Relative center-movement convergence threshold.
    """

    num_clusters: int = DEFAULT_NUM_CLUSTERS
    max_iter: int = 100
    tol: float = 1e-6

    def __post_init__(self) -> None:
        _require_positive("num_clusters", self.num_clusters)

    def fit(
        self, points: np.ndarray, rng: Optional[np.random.Generator] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Cluster ``points`` (n, d); returns (labels (n,), centers (k, d))."""
        rng = np.random.default_rng(0) if rng is None else rng
        return self._fit(_validate_points(points), rng)

    def _fit(self, x: np.ndarray, rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
        """Lloyd iterations on validated points; an emptied cluster keeps its centre."""
        k = min(self.num_clusters, _distinct_rows(x))
        centers = _kmeanspp_init(x, k, rng)
        labels = np.zeros(len(x), dtype=int)
        for _ in range(self.max_iter):
            labels = _sq_distances(x, centers).argmin(axis=1)
            new_centers = _label_means(x, labels, k, empty=centers)
            delta = new_centers - centers
            shift = math.sqrt(np.maximum.reduce(np.add.reduce(delta * delta, axis=1)))
            centers = new_centers
            if shift <= self.tol:
                break
        return labels, centers


def _require_positive(name: str, count: int) -> None:
    if count < 1:
        raise ClusteringError(f"{name} must be >= 1, got {count}")


def _validate_points(points: np.ndarray) -> np.ndarray:
    x = np.asarray(points, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ClusteringError(f"points must be a non-empty (n, d) array, got {x.shape}")
    if not np.isfinite(x).all():
        raise ClusteringError("points contain non-finite values")
    return x


def _distinct_rows(x: np.ndarray) -> int:
    """``len(np.unique(x, axis=0))``: rows equal under ``==`` count once."""
    ordered = x[np.lexsort(x.T)]
    return 1 + int(np.count_nonzero((ordered[1:] != ordered[:-1]).any(axis=1)))


def _label_means(x: np.ndarray, labels: np.ndarray, k: int, empty: np.ndarray) -> np.ndarray:
    """``x[labels == j].mean(axis=0)`` for each label j < k; row j of ``empty`` if j has none.

    With two or more columns numpy sums the member rows in order onto
    +0.0, as ``np.bincount`` does, so one ``np.bincount`` per column gives
    every label's sums.  A single column is contiguous and numpy sums it
    pairwise, so it is reduced label by label instead.
    """
    if x.shape[1] == 1:
        sums = np.array([np.add.reduce(x[labels == j], axis=0) for j in range(k)])
    else:
        sums = np.empty((k, x.shape[1]))
        for column in range(x.shape[1]):
            sums[:, column] = np.bincount(labels, x[:, column], k)
    counts = np.bincount(labels, minlength=k)[:, None]
    return np.divide(sums, counts, out=empty.copy(), where=counts > 0)


def _sq_distances(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    diff = x[:, None, :] - centers[None, :, :]
    return np.add.reduce(diff * diff, axis=2)


def _kmeanspp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeds, one ``rng.integers`` then one draw per further seed.

    ``d2`` is the running minimum over the seeds so far; a minimum is
    exact, so it equals the minimum over the full distance matrix.
    """
    n = len(x)
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d2 = np.full(n, np.inf)
    for j in range(1, k):
        d2 = np.minimum(d2, _sq_distances(x, centers[j - 1 : j])[:, 0])
        total = np.add.reduce(d2)
        if total <= 0:
            centers[j] = x[rng.integers(n)]
        else:
            centers[j] = x[rng.choice(n, p=d2 / total)]
    return centers


# ----------------------------------------------------------------------
# Gaussian mixture (EM, diagonal covariances)
# ----------------------------------------------------------------------
@dataclass
class GaussianMixture:
    """EM Gaussian mixture with diagonal covariances.

    Attributes
    ----------
    num_components:
        Mixture size (at least 1; reduced automatically for tiny
        datasets).
    max_iter:
        EM iteration cap.
    tol:
        Log-likelihood convergence threshold (per point).
    min_var:
        Variance floor preventing singular components.
    """

    num_components: int = DEFAULT_NUM_CLUSTERS
    max_iter: int = 200
    tol: float = 1e-7
    min_var: float = 1e-6

    def __post_init__(self) -> None:
        _require_positive("num_components", self.num_components)

    def fit(
        self, points: np.ndarray, rng: Optional[np.random.Generator] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fit the mixture; returns (labels, means, variances).

        ``labels`` are the hard (argmax-responsibility) assignments,
        ``means``/``variances`` have shape (k, d).
        """
        x = _validate_points(points)
        rng = np.random.default_rng(0) if rng is None else rng
        n = len(x)
        # Initialize from k-means.
        labels, means = KMeans(num_clusters=self.num_components)._fit(x, rng)
        k = len(means)
        counts = np.bincount(labels, minlength=k)
        weights = np.maximum(counts, 1) / n
        weights /= np.add.reduce(weights)
        # Each member set's ``.var(axis=0)``: the mean of the squared
        # deviations from the member mean; the whole set's for singletons.
        dev = x - _label_means(x, labels, k, empty=means)[labels]
        variances = _label_means(dev * dev, labels, k, empty=means)
        lonely = counts <= 1
        if lonely.any():
            variances[lonely] = x.var(axis=0)
        variances = np.maximum(variances, self.min_var)

        points3 = x[:, None, :]
        # The E-step's squared distances are the previous M-step's.
        diff2 = np.square(points3 - means[None, :, :])
        prev_ll = -np.inf
        resp = np.zeros((n, k))
        for _ in range(self.max_iter):
            # E step: log responsibilities under diagonal Gaussians.
            log_prob = -0.5 * (
                np.add.reduce(diff2 / variances[None, :, :], axis=2)
                + np.add.reduce(np.log(2.0 * np.pi * variances), axis=1)[None, :]
            )
            log_prob += np.log(np.maximum(weights, 1e-300))[None, :]
            peak = np.maximum.reduce(log_prob, axis=1)[:, None]
            log_norm = peak + np.log(np.add.reduce(np.exp(log_prob - peak), axis=1))[:, None]
            resp = np.exp(log_prob - log_norm)
            ll = float(np.add.reduce(log_norm[:, 0]) / n)
            # M step.
            nk = (np.add.reduce(resp, axis=0) + 1e-12)[:, None]
            weights = nk[:, 0] / n
            means = (resp.T @ x) / nk
            diff2 = np.square(points3 - means[None, :, :])
            variances = np.maximum(np.einsum("nk,nkd->kd", resp, diff2) / nk, self.min_var)
            if abs(ll - prev_ll) < self.tol:
                break
            prev_ll = ll
        return resp.argmax(axis=1), means, variances


# ----------------------------------------------------------------------
# Path clusters
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PathCluster:
    """Statistics of one (AoA, ToF) cluster — the inputs of Eq. 8.

    Attributes
    ----------
    mean_aoa_deg, mean_tof_s:
        Cluster means — the AoA/ToF estimate for the underlying path.
    var_aoa_deg2, var_tof_s2:
        Population variances of the members (paper's sigma-bar terms).
    count:
        Number of member points (paper's C-bar).
    mean_power:
        Mean MUSIC spectrum power of members (used by the CUPID baseline).
    member_indices:
        Indices into the estimate list this cluster was built from.
    """

    mean_aoa_deg: float
    mean_tof_s: float
    var_aoa_deg2: float
    var_tof_s2: float
    count: int
    mean_power: float
    member_indices: Tuple[int, ...] = ()


def _normalize_columns(x: np.ndarray) -> np.ndarray:
    """Scale each column to [0, 1] (constant columns map to 0)."""
    low = np.minimum.reduce(x, axis=0)
    span = np.maximum.reduce(x, axis=0) - low
    return np.divide(x - low, span, out=np.zeros_like(x), where=span > 0)


def cluster_estimates(
    estimates: Sequence[PathEstimate],
    num_clusters: int = DEFAULT_NUM_CLUSTERS,
    method: str = "gmm",
    rng: Optional[np.random.Generator] = None,
    min_cluster_size: int = 1,
) -> List[PathCluster]:
    """Cluster multi-packet path estimates into per-path groups.

    AoA and ToF are min-max normalized to a common [0, 1] range before
    clustering, as in paper Fig. 5(c).  ``method`` is ``"gmm"`` (default,
    the paper's Gaussian clustering) or ``"kmeans"``.

    Returns clusters with at least ``min_cluster_size`` members, sorted by
    descending size.  Raises :class:`ClusteringError` for an empty input
    or a ``num_clusters`` below 1.
    """
    points_list = list(estimates)
    if not points_list:
        raise ClusteringError("no path estimates to cluster")
    _require_positive("num_clusters", num_clusters)
    raw = np.array([[e.aoa_deg, e.tof_s] for e in points_list], dtype=float)
    powers = np.array([e.power for e in points_list], dtype=float)
    normalized = _normalize_columns(raw)
    rng = np.random.default_rng(0) if rng is None else rng

    k = min(num_clusters, len(points_list))
    if method == "gmm":
        labels, _, _ = GaussianMixture(num_components=k).fit(normalized, rng)
    elif method == "kmeans":
        labels, _ = KMeans(num_clusters=k).fit(normalized, rng)
    else:
        raise ClusteringError(f"unknown clustering method {method!r}")

    # A stable sort keeps each label's members in index order.  The
    # statistics run on contiguous gathered copies, whose pairwise sums
    # depend only on the values.
    order = np.argsort(labels, kind="stable")
    aoas, tofs, member_powers = raw[order, 0], raw[order, 1], powers[order]
    members = order.tolist()
    clusters: List[PathCluster] = []
    stop = 0
    for count in np.bincount(labels).tolist():
        start, stop = stop, stop + count
        if count == 0 or count < min_cluster_size:
            continue
        span = slice(start, stop)
        clusters.append(
            PathCluster(
                mean_aoa_deg=float(aoas[span].mean()),
                mean_tof_s=float(tofs[span].mean()),
                var_aoa_deg2=float(aoas[span].var()),
                var_tof_s2=float(tofs[span].var()),
                count=count,
                mean_power=float(member_powers[span].mean()),
                member_indices=tuple(members[span]),
            )
        )
    if not clusters:
        raise ClusteringError(
            f"all clusters smaller than min_cluster_size={min_cluster_size}"
        )
    clusters.sort(key=lambda c: -c.count)
    return clusters
