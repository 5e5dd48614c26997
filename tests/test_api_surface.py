"""Meta-tests on the public API surface and documentation coverage."""

import importlib
import inspect
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


class TestImports:
    @pytest.mark.parametrize("module_name", ALL_MODULES)
    def test_every_module_imports(self, module_name):
        importlib.import_module(module_name)

    def test_import_loads_no_scipy(self):
        # scipy is a test-only dependency: the package must import (and
        # fix) with numpy alone.
        probe = (
            "import sys, repro; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert out.stdout.strip() == "[]"

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
            "repro.sensing",
            "repro.calibration",
            "repro.runtime",
            "repro.estimators",
        ):
            pkg = importlib.import_module(pkg_name)
            for name in getattr(pkg, "__all__", []):
                assert hasattr(pkg, name), f"{pkg_name}.__all__ lists missing {name!r}"


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
