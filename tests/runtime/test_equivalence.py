"""Serial vs parallel result equivalence on a fixed seed.

Per-packet estimation is pure and clustering always runs in the parent
process with the shared RNG (other registry estimators run wholly in
the parent; mdtrack clusters on a fresh per-AP generator), so every
executor must produce the same fix, whichever estimator runs — this is the contract that lets deployments turn
``--workers`` up without revalidating the numerics.
"""

import numpy as np
import pytest

from repro.core.pipeline import SpotFi, SpotFiConfig
from repro.runtime import ParallelExecutor, SerialExecutor
from repro.testbed.layout import small_testbed
from repro.wifi.csi import CsiFrame, CsiTrace

PACKETS = 4


@pytest.fixture(scope="module")
def workload():
    tb = small_testbed()
    sim = tb.simulator()
    target = tb.targets[0].position
    rng = np.random.default_rng(11)
    pairs = [
        (ap, sim.generate_trace(target, ap, PACKETS, rng=rng))
        for ap in tb.aps[:3]
    ]
    return tb, sim, pairs


def make_spotfi(tb, sim, executor):
    return SpotFi(
        sim.grid,
        bounds=tb.bounds,
        config=SpotFiConfig(packets_per_fix=PACKETS),
        rng=np.random.default_rng(0),
        executor=executor,
    )


def assert_parallel_matches_serial(workload, estimator):
    """``estimator``'s fix on a 2-worker pool equals its serial fix."""
    tb, sim, pairs = workload
    serial = SerialExecutor()
    serial_fix = make_spotfi(tb, sim, serial).locate(pairs, estimator=estimator)
    with ParallelExecutor(workers=2) as ex:
        parallel_fix = make_spotfi(tb, sim, ex).locate(pairs, estimator=estimator)
    assert parallel_fix.position == serial_fix.position
    assert parallel_fix.reports == serial_fix.reports
    assert all(r.usable for r in parallel_fix.reports)
    # SpotFi's own kernels are submitted to the executor as stage
    # "estimate"; adapters run in this process as "estimate.<name>" and
    # submit nothing.  Either way one timed item per AP.
    kernel = estimator in (None, "esprit")
    stage = "estimate" if kernel else f"estimate.{estimator}"
    for metrics in (serial.metrics, ex.metrics):
        assert metrics.snapshot()["timings"][stage]["items"] == len(pairs)
        assert metrics.counter(f"{stage}.completed") == len(pairs)
        assert metrics.counter(f"{stage}.submitted") == (len(pairs) if kernel else 0)


class TestEquivalence:
    def test_parallel_fix_matches_serial(self, workload):
        assert_parallel_matches_serial(workload, None)

    @pytest.mark.parametrize("estimator", ["esprit", "mdtrack", "tof"])
    def test_parallel_registry_fix_matches_serial(self, workload, estimator):
        """Registry names give their serial fix and timings on a pool too."""
        assert_parallel_matches_serial(workload, estimator)

    def test_default_executor_matches_inline_loop(self, workload):
        """SerialExecutor (the default) reproduces the historical path."""
        tb, sim, pairs = workload
        default_fix = SpotFi(
            sim.grid,
            bounds=tb.bounds,
            config=SpotFiConfig(packets_per_fix=PACKETS),
            rng=np.random.default_rng(0),
        ).locate(pairs)
        explicit_fix = make_spotfi(tb, sim, SerialExecutor()).locate(pairs)
        assert default_fix.position.x == explicit_fix.position.x
        assert default_fix.position.y == explicit_fix.position.y

    def test_executor_metrics_count_packets(self, workload):
        """One executor task per AP; ``estimate.errors`` still counts packets."""
        tb, sim, pairs = workload
        array, trace = pairs[0]
        frames = list(trace)
        for i in (1, 2):
            frames[i] = CsiFrame(csi=np.zeros_like(frames[i].csi), rssi_dbm=-60.0)
        failing = [(array, CsiTrace(frames))] + pairs[1:]
        executor = SerialExecutor()
        make_spotfi(tb, sim, executor).locate(failing)
        assert executor.metrics.counter("estimate.submitted") == 3
        assert executor.metrics.counter("estimate.completed") == 3
        assert executor.metrics.counter("estimate.errors") == 2
        assert executor.metrics.counter("estimate.errors.EstimationError") == 2
