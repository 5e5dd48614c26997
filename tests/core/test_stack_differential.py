"""The stacked eigen-split and ESPRIT tail against their per-packet oracles.

``eigen_splits`` splits an AP's ``(K, S, S)`` covariances as one stack and
``EspritEstimator`` solves shift invariance once per group of packets that
share a signal rank.  Every packet's result must equal the one-packet
oracle in ``tests/reference.py`` exactly, whatever else is in the stack;
and a LAPACK call that raises must fail only the packet it fails on alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    reference_esprit_packet,
    reference_sanitize_csi,
    reference_smooth_csi,
    reference_subspaces,
)
from repro.channel.csi_model import synthesize_csi
from repro.channel.paths import PropagationPath
from repro.core.esprit import EspritEstimator
from repro.core.music import MusicConfig, covariances, eigen_splits
from repro.core.pipeline import SpotFi, SpotFiConfig
from repro.core.smoothing import smooth_csi_stack
from repro.core.steering import SteeringModel
from repro.errors import EstimationError
from repro.runtime import SerialExecutor
from repro.testbed.layout import small_testbed
from repro.wifi.arrays import UniformLinearArray
from repro.wifi.intel5300 import Intel5300

#: Subspace configurations the oracles are compared under.
CONFIGS = [
    MusicConfig(),
    MusicConfig(use_mdl=True),
    MusicConfig(forward_backward=False),
    MusicConfig(use_mdl=True, forward_backward=False, max_paths=3),
]


def reference_outcome(estimator, csi, packet_index):
    """The oracle's estimates for one packet, or the repr of its error."""
    try:
        return reference_esprit_packet(estimator, csi, packet_index)
    except EstimationError as exc:
        return repr(exc)


def as_values(outcomes):
    return [repr(o) if isinstance(o, EstimationError) else o for o in outcomes]


def assert_split_matches_reference(covs, config, num_snapshots):
    splits = eigen_splits(covs, config, num_snapshots)
    assert len(splits) == len(covs)
    for cov, split in zip(covs, splits):
        try:
            e_signal, e_noise, order = reference_subspaces(cov, config, num_snapshots)
        except EstimationError as exc:
            assert repr(split) == repr(exc)
            continue
        vectors, got = split
        assert got == order
        assert np.array_equal(vectors[:, :got], e_signal)
        assert np.array_equal(vectors[:, got:], e_noise)


# ----------------------------------------------------------------------
# The eigen-split
# ----------------------------------------------------------------------
@pytest.mark.parametrize("config", CONFIGS)
def test_office_splits_match_reference(office_bursts, grid, config):
    for array, trace in office_bursts:
        estimator = EspritEstimator(
            model=SteeringModel.for_grid(grid, array.num_antennas, array.spacing_m)
        )
        x = np.stack(
            [
                reference_smooth_csi(reference_sanitize_csi(f.csi), estimator.smoothing)
                for f in trace
            ]
        )
        covs = covariances(x)
        covs = np.concatenate([covs[:1], np.zeros_like(covs[:1]), covs[1:]])
        assert_split_matches_reference(covs, config, x.shape[2])


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(0, 12), min_size=1, max_size=6),
    zero_at=st.integers(0, 6),
    config=st.sampled_from(CONFIGS),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_splits_match_reference(sizes, zero_at, config, seed):
    """Covariances of every rank from 0 (all-zero) to full, in one stack."""
    rng = np.random.default_rng(seed)
    covs = []
    for rank in sizes:
        x = rng.normal(size=(8, rank)) + 1j * rng.normal(size=(8, rank))
        covs.append(x @ x.conj().T * 10.0 ** rng.uniform(-6, 6))
    covs.insert(min(zero_at, len(covs)), np.zeros((8, 8), dtype=np.complex128))
    assert_split_matches_reference(np.stack(covs), config, 12)


# ----------------------------------------------------------------------
# The ESPRIT tail
# ----------------------------------------------------------------------
@pytest.mark.parametrize("sanitize", [True, False])
@pytest.mark.parametrize("config", CONFIGS)
def test_office_packets_match_reference(office_bursts, grid, config, sanitize):
    compared = 0
    for array, trace in office_bursts:
        estimator = EspritEstimator(
            model=SteeringModel.for_grid(grid, array.num_antennas, array.spacing_m),
            music=config,
            sanitize=sanitize,
        )
        csi = [frame.csi for frame in trace]
        got = as_values(estimator.estimate_stack(csi, first_index=4))
        assert got == [reference_outcome(estimator, c, 4 + i) for i, c in enumerate(csi)]
        compared += len(csi)
    assert compared == 18


def packet(kind, model, rng):
    """One packet's CSI of the given kind, drawn from ``rng``."""
    array = UniformLinearArray(model.num_antennas, model.antenna_spacing_m)
    grid = Intel5300().grid()
    if kind == "zero":
        return np.zeros((model.num_antennas, model.num_subcarriers), dtype=np.complex128)
    if kind == "invisible":
        # An antenna phase step of pi: outside the visible region of an
        # array spaced below half a wavelength.
        ramp = (-1.0) ** np.arange(model.num_antennas)
        return np.outer(ramp, model.subcarrier_vector(rng.uniform(0, 200e-9)))
    if kind == "same_delay":
        # Two paths at one delay: a repeated ToF eigenvalue.
        tof = rng.uniform(0, 200e-9)
        aoas = rng.uniform(-60, 60, size=2)
        paths = [
            PropagationPath(float(a), tof, complex(g)) for a, g in zip(aoas, (1.0, 0.7j))
        ]
    else:
        n = int(rng.integers(1, 6))
        gains = rng.uniform(0.1, 1.0, n) * np.exp(2j * np.pi * rng.random(n))
        paths = [
            PropagationPath(float(a), float(t), complex(g))
            for a, t, g in zip(rng.uniform(-70, 70, n), rng.uniform(0, 250e-9, n), gains)
        ]
    csi = synthesize_csi(paths, array, grid)
    snr_db = rng.choice([np.inf, 30.0, 10.0])
    noise = rng.normal(size=csi.shape) + 1j * rng.normal(size=csi.shape)
    return csi + noise * np.sqrt(np.mean(np.abs(csi) ** 2) / 2) * 10 ** (-snr_db / 20)


KINDS = st.sampled_from(["paths", "paths", "paths", "zero", "invisible", "same_delay"])


@settings(max_examples=40, deadline=None)
@given(
    kinds=st.lists(KINDS, min_size=1, max_size=8),
    spacing=st.sampled_from([1.0, 0.5]),
    config=st.sampled_from(CONFIGS),
    sanitize=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_mixed_rank_stacks_match_reference(kinds, spacing, config, sanitize, seed):
    """K = 1 to 8 packets of mixed ranks, failures and invisible modes."""
    grid = Intel5300().grid()
    model = SteeringModel.for_grid(grid, 3, UniformLinearArray().spacing_m * spacing)
    estimator = EspritEstimator(model=model, music=config, sanitize=sanitize)
    rng = np.random.default_rng(seed)
    csi = [packet(kind, model, rng) for kind in kinds]
    got = as_values(estimator.estimate_stack(csi))
    assert got == [reference_outcome(estimator, c, i) for i, c in enumerate(csi)]


def test_every_packet_kind_in_one_stack():
    """Mixed ranks, a zero packet, no visible path and a repeated delay."""
    grid = Intel5300().grid()
    model = SteeringModel.for_grid(grid, 3, UniformLinearArray().spacing_m / 2)
    estimator = EspritEstimator(model=model)
    rng = np.random.default_rng(5)
    kinds = ["paths", "same_delay", "paths", "zero", "invisible", "paths", "same_delay"]
    csi = [packet(kind, model, rng) for kind in kinds]
    sanitized = np.stack([reference_sanitize_csi(c) for c in csi])
    x = smooth_csi_stack(sanitized, estimator.smoothing)
    ranks = [
        split if isinstance(split, EstimationError) else split[1]
        for split in eigen_splits(covariances(x), estimator.music, x.shape[2])
    ]
    assert isinstance(ranks[3], EstimationError)
    assert len({r for r in ranks if isinstance(r, int)}) >= 2
    got = as_values(estimator.estimate_stack(csi))
    assert "no positive eigenvalues" in got[3]
    assert got[4] == []
    assert got == [reference_outcome(estimator, c, i) for i, c in enumerate(csi)]


# ----------------------------------------------------------------------
# A LAPACK call that raises fails only its own packet
# ----------------------------------------------------------------------
def record_calls(monkeypatch, name):
    """Record the first argument of every ``np.linalg.<name>`` call."""
    real = getattr(np.linalg, name)
    calls = []

    def spy(a, *args, **kwargs):
        calls.append(np.array(a, copy=True))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, spy)
    return calls


def fail_on(monkeypatch, name, target):
    """``np.linalg.<name>`` raises on any call whose input holds ``target``."""
    real = getattr(np.linalg, name)

    def failing(a, *args, **kwargs):
        a = np.asarray(a)
        if a.shape[-2:] == target.shape and any(
            np.array_equal(m, target) for m in a.reshape((-1,) + target.shape)
        ):
            raise np.linalg.LinAlgError(f"injected {name} failure")
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, failing)


@pytest.fixture(scope="module")
def small_scene():
    testbed = small_testbed()
    sim = testbed.simulator()
    rng = np.random.default_rng(4)
    target = testbed.targets[0].position
    pairs = [(ap, sim.generate_trace(target, ap, 6, rng=rng)) for ap in testbed.aps]
    return testbed, sim, pairs


def locate(scene, estimation):
    testbed, sim, pairs = scene
    executor = SerialExecutor()
    fix = SpotFi(
        sim.grid,
        bounds=testbed.bounds,
        config=SpotFiConfig(packets_per_fix=6, estimation=estimation),
        rng=np.random.default_rng(0),
        executor=executor,
    ).locate(pairs)
    return fix, executor.metrics


def stacked(calls):
    """A matrix from the middle of the first call on two or more matrices."""
    stack = next(c for c in calls if c.ndim == 3 and len(c) >= 2)
    return stack[len(stack) // 2]


#: (estimation, function, how to pick the matrix it fails on, message).
FAULTS = [
    ("music", "eigh", stacked, "eigen-decomposition failed"),
    ("esprit", "eigh", stacked, "eigen-decomposition failed"),
    ("esprit", "eig", stacked, "ESPRIT solve failed"),
    ("esprit", "inv", stacked, "ESPRIT pairing failed"),
    ("esprit", "lstsq", lambda calls: calls[1], "ESPRIT solve failed"),
    ("esprit", "lstsq", lambda calls: calls[-1], "ESPRIT path powers failed"),
]


@pytest.mark.parametrize("estimation, name, choose, message", FAULTS)
def test_linalg_failure_fails_only_its_packet(
    monkeypatch, small_scene, estimation, name, choose, message
):
    with monkeypatch.context() as patch:
        calls = record_calls(patch, name)
        estimate_calls = len(calls)
        SpotFi(
            small_scene[1].grid,
            bounds=small_scene[0].bounds,
            config=SpotFiConfig(packets_per_fix=6, estimation=estimation),
            executor=SerialExecutor(),
        ).process_aps(small_scene[2][:1])
        calls = calls[estimate_calls:]
    fail_on(monkeypatch, name, choose(calls))
    fix, metrics = locate(small_scene, estimation)
    assert fix.degraded_aps == (0,)
    assert message in fix.reports[0].failure
    assert metrics.counter("estimate.errors") == 1
    assert metrics.counter("estimate.errors.EstimationError") == 1
    assert all(report.usable for report in fix.reports[1:])
    assert np.isfinite([fix.position.x, fix.position.y]).all()


@pytest.mark.parametrize("name", ["eig", "inv"])
def test_failed_group_rerun_keeps_the_other_packets(monkeypatch, small_scene, name):
    """Only the packet the stacked call fails on alone loses its estimates."""
    _testbed, sim, pairs = small_scene
    array, trace = pairs[0]
    estimator = SpotFi(
        sim.grid, bounds=(0, 0, 1, 1), config=SpotFiConfig(estimation="esprit")
    ).estimator_for(array)
    csi = [frame.csi for frame in trace]
    with monkeypatch.context() as patch:
        calls = record_calls(patch, name)
        clean = estimator.estimate_stack(csi)
    group = next(c for c in calls if len(c) >= 2)
    fail_on(monkeypatch, name, group[1])
    faulty = estimator.estimate_stack(csi)
    failed = [k for k, o in enumerate(faulty) if isinstance(o, EstimationError)]
    assert len(failed) == 1
    assert [o for k, o in enumerate(faulty) if k not in failed] == [
        o for k, o in enumerate(clean) if k not in failed
    ]


def test_single_packet_failure_raises_estimation_error(monkeypatch, small_scene):
    """The per-packet K = 1 entry point raises the packet's EstimationError."""
    testbed, sim, pairs = small_scene
    array, trace = pairs[0]
    estimator = SpotFi(
        sim.grid, bounds=testbed.bounds, config=SpotFiConfig(estimation="esprit")
    ).estimator_for(array)
    with monkeypatch.context() as patch:
        calls = record_calls(patch, "eigh")
        estimator.estimate_packet(trace[0].csi)
    fail_on(monkeypatch, "eigh", calls[0][0])
    with pytest.raises(EstimationError, match="eigen-decomposition failed"):
        estimator.estimate_packet(trace[0].csi)
    assert estimator.estimate_packet(trace[1].csi)
