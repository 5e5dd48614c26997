"""Tests for k-means / GMM clustering of (AoA, ToF) estimates."""

import numpy as np
import pytest

from repro.core.clustering import (
    GaussianMixture,
    KMeans,
    PathCluster,
    cluster_estimates,
)
from repro.core.estimator import PathEstimate
from repro.errors import ClusteringError


def blob(rng, center, spread, n):
    return rng.normal(loc=center, scale=spread, size=(n, 2))


@pytest.fixture()
def two_blobs(rng):
    a = blob(rng, (0.0, 0.0), 0.05, 40)
    b = blob(rng, (1.0, 1.0), 0.05, 40)
    return np.concatenate([a, b]), 40


class TestKMeans:
    def test_separates_two_blobs(self, two_blobs, rng):
        points, n_per = two_blobs
        labels, centers = KMeans(num_clusters=2).fit(points, rng)
        assert len(centers) == 2
        first = labels[:n_per]
        second = labels[n_per:]
        # Each blob maps to a single distinct label.
        assert len(set(first.tolist())) == 1
        assert len(set(second.tolist())) == 1
        assert first[0] != second[0]

    def test_centers_near_blob_means(self, two_blobs, rng):
        points, _ = two_blobs
        _, centers = KMeans(num_clusters=2).fit(points, rng)
        dists = sorted(np.linalg.norm(c) for c in centers)
        assert dists[0] < 0.1
        assert abs(dists[1] - np.sqrt(2)) < 0.1

    def test_k_reduced_for_few_distinct_points(self, rng):
        points = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        labels, centers = KMeans(num_clusters=5).fit(points, rng)
        assert len(centers) == 2
        assert len(labels) == 3

    def test_empty_rejected(self, rng):
        with pytest.raises(ClusteringError):
            KMeans().fit(np.zeros((0, 2)), rng)

    def test_nonfinite_rejected(self, rng):
        with pytest.raises(ClusteringError):
            KMeans().fit(np.array([[np.nan, 0.0]]), rng)

    @pytest.mark.parametrize("k", [0, -2])
    def test_cluster_count_below_one_rejected(self, k):
        with pytest.raises(ClusteringError, match="num_clusters must be >= 1"):
            KMeans(num_clusters=k)

    def test_deterministic_given_rng(self, two_blobs):
        points, _ = two_blobs
        l1, c1 = KMeans(num_clusters=2).fit(points, np.random.default_rng(5))
        l2, c2 = KMeans(num_clusters=2).fit(points, np.random.default_rng(5))
        assert np.array_equal(l1, l2)
        assert np.allclose(c1, c2)


class TestGaussianMixture:
    def test_separates_two_blobs(self, two_blobs, rng):
        points, n_per = two_blobs
        labels, means, variances = GaussianMixture(num_components=2).fit(points, rng)
        assert means.shape[1] == 2
        assert len(set(labels[:n_per].tolist())) == 1
        assert len(set(labels[n_per:].tolist())) == 1

    def test_variances_floored(self, rng):
        points = np.tile([[1.0, 2.0]], (10, 1))
        _, _, variances = GaussianMixture(num_components=1, min_var=1e-4).fit(
            points, rng
        )
        assert np.all(variances >= 1e-4)

    def test_unequal_cluster_sizes(self, rng):
        a = blob(rng, (0.0, 0.0), 0.05, 100)
        b = blob(rng, (2.0, 2.0), 0.05, 10)
        points = np.concatenate([a, b])
        labels, means, _ = GaussianMixture(num_components=2).fit(points, rng)
        counts = np.bincount(labels)
        assert sorted(counts.tolist()) == [10, 100]

    def test_component_count_below_one_rejected(self):
        with pytest.raises(ClusteringError, match="num_components must be >= 1"):
            GaussianMixture(num_components=0)


class TestClusterEstimates:
    def _estimates(self, rng, centers, n_per=20, aoa_spread=0.5, tof_spread=2e-9):
        estimates = []
        for k, (aoa, tof) in enumerate(centers):
            for i in range(n_per):
                estimates.append(
                    PathEstimate(
                        aoa_deg=float(rng.normal(aoa, aoa_spread)),
                        tof_s=float(rng.normal(tof, tof_spread)),
                        power=10.0 - k,
                        packet_index=i,
                    )
                )
        return estimates

    def test_clusters_recover_centers(self, rng):
        centers = [(20.0, 30e-9), (-40.0, 100e-9), (60.0, 180e-9)]
        estimates = self._estimates(rng, centers)
        clusters = cluster_estimates(estimates, num_clusters=3, rng=rng)
        assert len(clusters) == 3
        found_aoas = sorted(c.mean_aoa_deg for c in clusters)
        expected = sorted(a for a, _ in centers)
        assert np.allclose(found_aoas, expected, atol=1.0)

    def test_cluster_statistics(self, rng):
        estimates = self._estimates(rng, [(10.0, 50e-9)], n_per=30)
        clusters = cluster_estimates(estimates, num_clusters=1, rng=rng)
        c = clusters[0]
        assert c.count == 30
        assert c.mean_aoa_deg == pytest.approx(10.0, abs=0.5)
        assert c.var_aoa_deg2 < 1.0
        assert c.mean_power == pytest.approx(10.0)
        assert len(c.member_indices) == 30

    def test_kmeans_method(self, rng):
        estimates = self._estimates(rng, [(20.0, 30e-9), (-40.0, 100e-9)])
        clusters = cluster_estimates(
            estimates, num_clusters=2, method="kmeans", rng=rng
        )
        assert len(clusters) == 2

    def test_unknown_method_rejected(self, rng):
        estimates = self._estimates(rng, [(0.0, 0.0)])
        with pytest.raises(ClusteringError):
            cluster_estimates(estimates, method="dbscan", rng=rng)

    def test_empty_rejected(self, rng):
        with pytest.raises(ClusteringError):
            cluster_estimates([], rng=rng)

    @pytest.mark.parametrize("k", [0, -2])
    def test_cluster_count_below_one_rejected(self, rng, k):
        estimates = self._estimates(rng, [(0.0, 0.0)])
        state = rng.bit_generator.state
        with pytest.raises(ClusteringError, match="num_clusters must be >= 1"):
            cluster_estimates(estimates, num_clusters=k, rng=rng)
        assert rng.bit_generator.state == state

    def test_fewer_points_than_clusters(self, rng):
        estimates = [PathEstimate(10.0, 20e-9, 1.0), PathEstimate(-30.0, 90e-9, 1.0)]
        clusters = cluster_estimates(estimates, num_clusters=5, rng=rng)
        assert len(clusters) == 2

    def test_min_cluster_size_filters(self, rng):
        estimates = self._estimates(rng, [(20.0, 30e-9)], n_per=30)
        estimates.append(PathEstimate(aoa_deg=-80.0, tof_s=300e-9, power=1.0))
        clusters = cluster_estimates(
            estimates, num_clusters=2, rng=rng, min_cluster_size=5
        )
        assert len(clusters) == 1
        assert clusters[0].count == 30

    def test_min_cluster_size_all_filtered_raises(self, rng):
        estimates = [PathEstimate(10.0, 20e-9, 1.0)]
        with pytest.raises(ClusteringError):
            cluster_estimates(estimates, rng=rng, min_cluster_size=2)

    def test_sorted_by_count(self, rng):
        a = self._estimates(rng, [(20.0, 30e-9)], n_per=40)
        b = self._estimates(rng, [(-50.0, 150e-9)], n_per=10)
        clusters = cluster_estimates(a + b, num_clusters=2, rng=rng)
        assert clusters[0].count >= clusters[1].count
