"""Package-level health checks: imports, exports, versioning."""

import importlib
import pkgutil
import subprocess
import sys

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.core",
    "repro.core.dsl",
    "repro.core.synthesis",
    "repro.attacks",
    "repro.classifier",
    "repro.data",
    "repro.models",
    "repro.nn",
    "repro.nn.layers",
    "repro.eval",
    "repro.defense",
    "repro.runtime",
    "repro.serve",
    "repro.testkit",
]


def iter_all_modules():
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        yield package_name
        for info in pkgutil.iter_modules(package.__path__):
            if not info.ispkg:
                yield f"{package_name}.{info.name}"


class TestImports:
    @pytest.mark.parametrize("module_name", sorted(set(iter_all_modules())))
    def test_module_imports(self, module_name):
        importlib.import_module(module_name)

    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_all_exports_resolve(self, package_name):
        package = importlib.import_module(package_name)
        for name in getattr(package, "__all__", []):
            assert hasattr(package, name), f"{package_name}.{name} missing"

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_top_level_api(self):
        # the names the README leads with
        assert callable(repro.OnePixelSketch)
        assert callable(repro.Oppsla)
        assert callable(repro.CountingClassifier)

    @pytest.mark.parametrize("module_name", sorted(set(iter_all_modules())))
    def test_every_module_has_a_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"


class TestModuleEntryPoints:
    @pytest.mark.parametrize(
        "module", ["repro.testkit.kill", "repro.testkit.sharedcache"]
    )
    def test_python_m_runs_the_module_once(self, module):
        """``python -m`` must not find the module already imported by its
        package: runpy would warn, and the module would exist twice."""
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", module, "--help"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
