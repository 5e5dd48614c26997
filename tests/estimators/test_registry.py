"""Tests for the estimator registry: names, tiers, plugins."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, UnknownEstimatorError
from repro.estimators import (
    TIER_DEFAULTS,
    TIERS,
    ApEstimate,
    Estimator,
    EstimatorContext,
    available,
    create,
    register,
    resolve_name,
    tier_of,
    unregister,
)
from repro.wifi.intel5300 import Intel5300


@pytest.fixture()
def context():
    return EstimatorContext(grid=Intel5300().grid(), bounds=None, seed=0)


class TestRegistry:
    def test_builtins_registered(self):
        names = available()
        for expected in (
            "music2d",
            "esprit",
            "mdtrack",
            "music-aoa",
            "arraytrack",
            "tof",
        ):
            assert expected in names

    def test_unknown_name_raises_with_available(self):
        with pytest.raises(UnknownEstimatorError) as excinfo:
            resolve_name("nope")
        assert "nope" in str(excinfo.value)
        assert "music2d" in str(excinfo.value)

    def test_tiers_resolve_to_defaults(self):
        assert set(TIER_DEFAULTS) == set(TIERS)
        for tier, default in TIER_DEFAULTS.items():
            assert resolve_name(tier) == default

    def test_tier_of_builtin(self):
        assert tier_of("music2d") == "precise"
        assert tier_of("mdtrack") == "balanced"
        assert tier_of("tof") == "coarse"

    def test_create_by_tier(self, context):
        estimator = create("coarse", context)
        assert estimator.name == TIER_DEFAULTS["coarse"]
        assert estimator.tier == "coarse"


class FakeEstimator(Estimator):
    """Degenerate estimator used to exercise plugin registration."""

    def estimate_ap(self, array, trace):  # pragma: no cover - never run
        return ApEstimate(array=array)


class TestPluginRegistration:
    def test_register_and_unregister(self, context):
        register("fake-test", tier="coarse")(FakeEstimator)
        try:
            assert "fake-test" in available()
            assert tier_of("fake-test") == "coarse"
            assert isinstance(create("fake-test", context), FakeEstimator)
        finally:
            unregister("fake-test")
        assert "fake-test" not in available()

    def test_duplicate_requires_override(self):
        register("fake-dup", tier="coarse")(FakeEstimator)
        try:
            with pytest.raises(ConfigurationError):
                register("fake-dup", tier="coarse")(FakeEstimator)
            # With override=True the re-registration is accepted.
            register("fake-dup", tier="balanced", override=True)(FakeEstimator)
            assert tier_of("fake-dup") == "balanced"
        finally:
            unregister("fake-dup")

    def test_invalid_tier_rejected(self):
        with pytest.raises(ConfigurationError):
            register("fake-bad", tier="turbo")(FakeEstimator)

    def test_env_plugin_spec(self, monkeypatch):
        import os

        import repro.estimators.registry as registry_module

        monkeypatch.syspath_prepend(os.path.dirname(__file__))
        monkeypatch.setenv(registry_module.PLUGIN_ENV, "plugin_fixture")
        try:
            registry_module._load_plugins()
            assert "env-plugin" in available()
            assert tier_of("env-plugin") == "coarse"
        finally:
            unregister("env-plugin")

    def test_env_plugin_set_at_process_start(self):
        # Plugins load while ``repro.estimators`` is imported, so a plugin
        # importing ``register`` from the package must find it bound.
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro
        import repro.estimators.registry as registry_module

        src = str(Path(repro.__file__).resolve().parents[1])
        probe = (
            "import repro.server, repro.cli\n"
            "from repro.estimators import available, tier_of\n"
            "assert 'env-plugin' in available(), available()\n"
            "assert tier_of('env-plugin') == 'coarse'\n"
        )
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join([src, os.path.dirname(__file__)]),
            registry_module.PLUGIN_ENV: "plugin_fixture",
        }
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120, env=env
        )
        assert out.returncode == 0, out.stderr

    def test_env_plugin_bad_module(self, monkeypatch):
        import repro.estimators.registry as registry_module

        monkeypatch.setenv(registry_module.PLUGIN_ENV, "no.such.module")
        with pytest.raises(ConfigurationError):
            registry_module._load_plugins()


class TestPipelineSelection:
    def test_locate_rejects_unknown_estimator(self):
        from repro.core.pipeline import SpotFi

        spotfi = SpotFi(
            Intel5300().grid(), bounds=None, rng=np.random.default_rng(0)
        )
        with pytest.raises(UnknownEstimatorError):
            spotfi.locate([], estimator="nope")
