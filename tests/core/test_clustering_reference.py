"""EM clustering against its reference copy, bit for bit.

``KMeans``, ``GaussianMixture`` and ``cluster_estimates`` take their
Lloyd sums in one pass over the labels, reuse each M-step's squared
distances in the next E-step, and group members with one stable sort.
Every label, mean, variance and ``PathCluster`` must equal the code they
replaced (``tests/reference.py``), and the generator must end in the same
state: the same draws, in the same order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import reference_cluster_estimates, reference_gmm, reference_kmeans
from repro.core.clustering import GaussianMixture, KMeans, cluster_estimates
from repro.core.estimator import PathEstimate
from repro.core.pipeline import SpotFi, SpotFiConfig
from repro.errors import ClusteringError
from repro.testbed.layout import small_testbed


def twin_rngs(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def hexes(array):
    return [float(v).hex() for v in np.ravel(array)]


def assert_same_arrays(got, want):
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert np.array_equal(g, w)
        assert hexes(g) == hexes(w)


def cluster_hexes(clusters):
    return [
        hexes([c.mean_aoa_deg, c.mean_tof_s, c.var_aoa_deg2, c.var_tof_s2, c.mean_power])
        for c in clusters
    ]


def assert_same_state(rng, ref_rng):
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def pooled_estimates(office_bursts, estimation):
    """Each office AP's estimates, pooled over its packets."""
    sim = small_testbed().simulator()
    spotfi = SpotFi(sim.grid, bounds=(0, 0, 1, 1), config=SpotFiConfig(estimation=estimation))
    pools = []
    for array, trace in office_bursts:
        outcomes = spotfi.estimator_for(array).estimate_stack([f.csi for f in trace])
        pools.append([e for packet in outcomes if isinstance(packet, list) for e in packet])
    return pools


@pytest.mark.parametrize("estimation", ["music", "esprit"])
@pytest.mark.parametrize("method", ["gmm", "kmeans"])
def test_office_estimates_match_reference(office_bursts, estimation, method):
    """One shared generator across the APs, as a fix's clustering uses it."""
    pools = pooled_estimates(office_bursts, estimation)
    assert all(len(pool) >= 5 for pool in pools)
    rng, ref_rng = twin_rngs(11)
    for pool in pools:
        for min_size in (1, 2):
            got = cluster_estimates(pool, 5, method, rng, min_size)
            want = reference_cluster_estimates(pool, 5, method, ref_rng, min_size)
            assert got == want
            assert cluster_hexes(got) == cluster_hexes(want)
    assert_same_state(rng, ref_rng)


@pytest.mark.parametrize("estimation", ["music", "esprit"])
def test_office_fits_match_reference(office_bursts, estimation):
    """The raw fits on the normalized office points, not only the grouping."""
    for seed, pool in enumerate(pooled_estimates(office_bursts, estimation)):
        raw = np.array([[e.aoa_deg, e.tof_s] for e in pool])
        x = (raw - raw.min(axis=0)) / (raw.max(axis=0) - raw.min(axis=0))
        rng, ref_rng = twin_rngs(seed)
        assert_same_arrays(GaussianMixture().fit(x, rng), reference_gmm(x, ref_rng))
        assert_same_arrays(KMeans().fit(x, rng), reference_kmeans(x, ref_rng))
        assert_same_state(rng, ref_rng)


#: Coordinates drawn from a short list repeat, so point sets have duplicate
#: rows, constant columns and fewer distinct points than clusters.
coordinates = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-300, 3.0e5]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def point_sets(draw, dims=st.integers(1, 3)):
    n = draw(st.integers(1, 40))
    d = draw(dims)
    base = draw(st.lists(st.lists(coordinates, min_size=d, max_size=d), min_size=1, max_size=n))
    rows = [base[draw(st.integers(0, len(base) - 1))] for _ in range(n)]
    x = np.array(rows, dtype=float)
    for column in draw(st.lists(st.integers(0, d - 1), max_size=d)):
        x[:, column] = x[0, column]
    return x


@settings(max_examples=150, deadline=None)
@given(x=point_sets(), k=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_kmeans_matches_reference(x, k, seed):
    rng, ref_rng = twin_rngs(seed)
    assert_same_arrays(
        KMeans(num_clusters=k).fit(x, rng), reference_kmeans(x, ref_rng, num_clusters=k)
    )
    assert_same_state(rng, ref_rng)


@settings(max_examples=150, deadline=None)
@given(x=point_sets(), k=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_gmm_matches_reference(x, k, seed):
    rng, ref_rng = twin_rngs(seed)
    with np.errstate(all="ignore"):
        got = GaussianMixture(num_components=k).fit(x, rng)
        want = reference_gmm(x, ref_rng, num_components=k)
    assert_same_arrays(got, want)
    assert_same_state(rng, ref_rng)


@settings(max_examples=150, deadline=None)
@given(
    x=point_sets(dims=st.just(3)),
    k=st.integers(1, 6),
    method=st.sampled_from(["gmm", "kmeans"]),
    min_size=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_cluster_estimates_matches_reference(x, k, method, min_size, seed):
    estimates = [PathEstimate(aoa_deg=a, tof_s=t, power=p) for a, t, p in x]
    rng, ref_rng = twin_rngs(seed)
    outcomes = []
    for fn, generator in ((cluster_estimates, rng), (reference_cluster_estimates, ref_rng)):
        try:
            with np.errstate(all="ignore"):
                outcomes.append(fn(estimates, k, method, generator, min_size))
        except ClusteringError as exc:  # the same error, with the same message
            outcomes.append(repr(exc))
    assert outcomes[0] == outcomes[1]
    assert_same_state(rng, ref_rng)


@pytest.mark.parametrize(
    "x",
    [
        np.full((7, 2), 0.25),
        np.array([[0.0, 0.0], [1e-300, 0.0], [0.0, 1e-300]] * 3),
    ],
    ids=["identical", "underflow"],
)
def test_degenerate_points_match_reference(x):
    """One distinct point (k drops to 1), or distinct points whose squared
    distances all underflow to 0: k-means++ redraws with ``rng.integers``."""
    for k in (1, 3, 5):
        rng, ref_rng = twin_rngs(k)
        assert_same_arrays(
            KMeans(num_clusters=k).fit(x, rng), reference_kmeans(x, ref_rng, num_clusters=k)
        )
        assert_same_arrays(
            GaussianMixture(num_components=k).fit(x, rng),
            reference_gmm(x, ref_rng, num_components=k),
        )
        assert_same_state(rng, ref_rng)


def test_negative_zero_columns_match_reference():
    """A cluster whose members are all -0.0 in a column: the sums start at +0.0."""
    x = np.array([[-0.0, 1.0], [-0.0, 1.0], [5.0, -0.0], [6.0, -0.0]])
    for k in (1, 2):
        rng, ref_rng = twin_rngs(3)
        assert_same_arrays(
            KMeans(num_clusters=k).fit(x, rng), reference_kmeans(x, ref_rng, num_clusters=k)
        )
        assert_same_arrays(
            GaussianMixture(num_components=k).fit(x, rng),
            reference_gmm(x, ref_rng, num_components=k),
        )
        assert_same_state(rng, ref_rng)


def test_large_clusters_match_reference():
    """Clusters of 8 members and more, where a pairwise sum would differ."""
    blobs = np.random.default_rng(5)
    x = np.concatenate([blobs.normal(c, 0.05, size=(20, 2)) for c in (0.0, 1.0, 3.0)])
    for seed in range(5):
        rng, ref_rng = twin_rngs(seed)
        assert_same_arrays(
            KMeans(num_clusters=3).fit(x, rng), reference_kmeans(x, ref_rng, num_clusters=3)
        )
        assert_same_arrays(
            GaussianMixture(num_components=3).fit(x, rng),
            reference_gmm(x, ref_rng, num_components=3),
        )
        assert_same_state(rng, ref_rng)
