"""Runner-level tests for alternative estimator configurations."""

import numpy as np
import pytest

from repro.core.pipeline import SpotFiConfig
from repro.testbed.layout import small_testbed
from repro.testbed.runner import ExperimentRunner, errors_of


class TestRunnerConfigs:
    def test_esprit_pipeline_through_runner(self):
        tb = small_testbed()
        runner = ExperimentRunner(
            tb,
            config=SpotFiConfig(packets_per_fix=8, estimation="esprit"),
            num_packets=8,
            seed=3,
        )
        out = runner.run(tb.targets[:2], run_arraytrack=False)
        errs = errors_of(out, "spotfi")
        assert len(errs) == 2
        assert np.all(errs < 4.0)

    def test_kmeans_clustering_through_runner(self):
        tb = small_testbed()
        runner = ExperimentRunner(
            tb,
            config=SpotFiConfig(packets_per_fix=8, clustering_method="kmeans"),
            num_packets=8,
            seed=4,
        )
        out = runner.run(tb.targets[:1], run_arraytrack=False)
        assert np.isfinite(out[0].spotfi_error_m)

    def test_esprit_not_slower_than_music(self):
        """Best-of-3 warm timings, so the order tests run in cannot matter.

        Each estimator gets one untimed run first: the first fix in a
        fresh process pays one-off costs (steering grids, imports, BLAS
        start-up) that say nothing about either estimator.
        """
        import time

        tb = small_testbed()

        def best_time(estimation, repeats=3):
            runner = ExperimentRunner(
                tb,
                config=SpotFiConfig(packets_per_fix=8, estimation=estimation),
                num_packets=8,
                seed=5,
            )
            runner.run(tb.targets[:1], run_arraytrack=False)  # warm-up
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                runner.run(tb.targets[:1], run_arraytrack=False)
                times.append(time.perf_counter() - start)
            return min(times)

        t_esprit = best_time("esprit")
        t_music = best_time("music")
        assert t_esprit < t_music
