"""Serial vs parallel result equivalence on a fixed seed.

Per-packet estimation is pure and clustering always runs in the parent
process with the shared RNG, so every executor must produce the same
fix — this is the contract that lets deployments turn ``--workers`` up
without revalidating the numerics.
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


class TestEquivalence:
    def test_parallel_fix_matches_serial(self, workload):
        tb, sim, pairs = workload
        serial_fix = make_spotfi(tb, sim, SerialExecutor()).locate(pairs)
        with ParallelExecutor(workers=2) as ex:
            parallel_fix = make_spotfi(tb, sim, ex).locate(pairs)
        assert parallel_fix.position.x == pytest.approx(
            serial_fix.position.x, abs=1e-9
        )
        assert parallel_fix.position.y == pytest.approx(
            serial_fix.position.y, abs=1e-9
        )
        for serial_report, parallel_report in zip(
            serial_fix.reports, parallel_fix.reports
        ):
            assert serial_report.usable == parallel_report.usable
            if serial_report.usable:
                assert parallel_report.direct.aoa_deg == pytest.approx(
                    serial_report.direct.aoa_deg, abs=1e-9
                )
            assert parallel_report.estimates == serial_report.estimates

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
