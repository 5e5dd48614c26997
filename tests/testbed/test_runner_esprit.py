"""Runner-level tests for alternative estimator configurations."""

from collections import Counter

import numpy as np

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

    def test_esprit_builds_no_grid_spectrum(self, monkeypatch):
        """ESPRIT fixes never evaluate or search a MUSIC grid spectrum.

        That is where ESPRIT's speed over MUSIC comes from; the latency
        comparison itself is ``benchmarks/bench_estimators.py``'s job.
        The MUSIC run shows the counters see the grid work when it runs.
        """
        from repro.core import estimator, music, peaks

        calls = Counter()

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        for module, name in (
            (estimator, "subspace_energy"),
            (music, "subspace_energy"),
            (estimator, "peak_candidates"),
            (peaks, "peak_candidates"),
        ):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))

        tb = small_testbed()

        def run(estimation):
            calls.clear()
            runner = ExperimentRunner(
                tb,
                config=SpotFiConfig(packets_per_fix=8, estimation=estimation),
                num_packets=8,
                seed=5,
            )
            out = runner.run(tb.targets[:1], run_arraytrack=False)
            assert np.isfinite(out[0].spotfi_error_m)
            return dict(calls)

        assert run("esprit") == {}
        music_calls = run("music")
        assert music_calls["subspace_energy"] > 0
        assert music_calls["peak_candidates"] > 0
