"""Meta-tests on the public API surface and documentation coverage."""

import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ALL_MODULES = [
    name
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    # __main__ runs the CLI at import time, by design.
    if not name.endswith("__main__")
]

#: Serving, evaluation and tooling layers that sit above the paper's math.
ABOVE_CORE = (
    "repro.dist",
    "repro.server",
    "repro.cli",
    "repro.estimators",
    "repro.baselines",
    "repro.testbed",
    "repro.mobility",
    "repro.tracking",
    "repro.io",
    "repro.eval",
    "repro.calibration",
)

#: The only fault, analysis and obs modules the core may load.
CORE_SUPPORT = {
    "repro.faults",
    "repro.faults.retry",
    "repro.analysis",
    "repro.analysis.contracts",
    "repro.obs",
    "repro.obs.trace",
    "repro.obs.config",
    "repro.obs.artifacts",
    "repro.obs.histogram",
}


def _under(modules, packages):
    return {m for m in modules if any(m == p or m.startswith(p + ".") for p in packages)}


def _modules_loaded_by(module_name):
    """Every module in ``sys.modules`` after importing ``module_name`` fresh."""
    probe = f"import json, sys, {module_name}; print(json.dumps(sorted(sys.modules)))"
    src = str(Path(repro.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    return set(json.loads(out.stdout))


class TestImports:
    @pytest.mark.parametrize("module_name", ALL_MODULES)
    def test_every_module_imports(self, module_name):
        importlib.import_module(module_name)

    @pytest.mark.parametrize(
        "module_name, offending",
        [
            # The top level is an export table: it loads no leaf.
            pytest.param(
                "repro",
                lambda loaded: _under(loaded, ["repro"]) - {"repro", "repro._exports"},
                id="repro-loads-no-leaf",
            ),
            pytest.param(
                "repro.core",
                lambda loaded: _under(loaded, ABOVE_CORE),
                id="core-loads-nothing-above-it",
            ),
            pytest.param(
                "repro.core",
                lambda loaded: _under(loaded, ["repro.faults", "repro.analysis", "repro.obs"])
                - CORE_SUPPORT,
                id="core-loads-no-serving-lint-or-sockets",
            ),
            # The core uses one path-loss model, not the RF simulator.
            pytest.param(
                "repro.core",
                lambda loaded: _under(loaded, ["repro.channel"])
                - {"repro.channel", "repro.channel.pathloss"},
                id="core-loads-no-channel-simulator",
            ),
            # The whole serving stack (server, dist, estimators, testbed)
            # also imports with numpy alone.
            pytest.param("repro.cli", lambda loaded: set(), id="cli-loads-no-scipy"),
            # The runtime sits below the core; its steering cache calls
            # up into core.music only at call time.
            pytest.param(
                "repro.runtime",
                lambda loaded: _under(loaded, ["repro.core", *ABOVE_CORE]),
                id="runtime-loads-no-core",
            ),
        ],
    )
    def test_import_layering(self, module_name, offending):
        # scipy is a test-only dependency: the package must import (and
        # fix) with numpy alone.
        loaded = _modules_loaded_by(module_name)
        assert not _under(loaded, ["scipy"])
        assert not offending(loaded)

    def test_top_level_all_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing {name!r}"

    def test_subpackage_all_resolves(self):
        for pkg_name in (
            "repro.wifi",
            "repro.geom",
            "repro.channel",
            "repro.core",
            "repro.baselines",
            "repro.testbed",
            "repro.eval",
            "repro.io",
            "repro.tracking",
            "repro.calibration",
            "repro.runtime",
            "repro.estimators",
            "repro.obs",
            "repro.faults",
            "repro.analysis",
        ):
            pkg = importlib.import_module(pkg_name)
            exported = getattr(pkg, "__all__", [])
            assert len(set(exported)) == len(exported), f"{pkg_name}.__all__ repeats a name"
            for name in exported:
                assert hasattr(pkg, name), f"{pkg_name}.__all__ lists missing {name!r}"
                assert name in dir(pkg), f"dir({pkg_name}) hides {name!r}"


class TestDocumentation:
    @pytest.mark.parametrize("module_name", ALL_MODULES)
    def test_every_module_has_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and module.__doc__.strip(), (
            f"{module_name} lacks a module docstring"
        )

    def test_public_classes_documented(self):
        undocumented = []
        for module_name in ALL_MODULES:
            module = importlib.import_module(module_name)
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                if inspect.isclass(obj) and obj.__module__ == module_name:
                    if not (obj.__doc__ and obj.__doc__.strip()):
                        undocumented.append(f"{module_name}.{name}")
        assert not undocumented, f"undocumented classes: {undocumented}"

    def test_public_functions_documented(self):
        undocumented = []
        for module_name in ALL_MODULES:
            module = importlib.import_module(module_name)
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module_name:
                    if not (obj.__doc__ and obj.__doc__.strip()):
                        undocumented.append(f"{module_name}.{name}")
        assert not undocumented, f"undocumented functions: {undocumented}"


class TestVersion:
    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)
