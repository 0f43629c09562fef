"""API quality guards: docstrings everywhere, exports resolvable, no
accidental public surface drift."""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

PACKAGES = [
    "repro",
    "repro.graph",
    "repro.matching",
    "repro.core",
    "repro.parallel",
    "repro.instrument",
    "repro.apps",
    "repro.distributed",
    "repro.bench",
    "repro.bench.experiments",
]


def all_modules():
    out = []
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        out.append(package)
        for info in pkgutil.iter_modules(package.__path__):
            if info.name.startswith("_") and info.name != "_shared":
                continue
            out.append(importlib.import_module(f"{package_name}.{info.name}"))
    return out


class TestDocstrings:
    @pytest.mark.parametrize("module", all_modules(), ids=lambda m: m.__name__)
    def test_module_docstring(self, module):
        assert module.__doc__, f"{module.__name__} lacks a module docstring"

    @pytest.mark.parametrize("module", all_modules(), ids=lambda m: m.__name__)
    def test_public_functions_documented(self, module):
        undocumented = []
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                if not obj.__doc__:
                    undocumented.append(name)
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                if not obj.__doc__:
                    undocumented.append(name)
        assert not undocumented, f"{module.__name__}: missing docstrings on {undocumented}"


EXPORTING_PACKAGES = PACKAGES + [
    "repro.telemetry",
    "repro.service",
    "repro.cache",
    "repro.util",
    "repro.analysis",
]
"""Every package with an ``__all__``."""

SHARED_NAME_EXPORTS = [
    ("repro.matching", "karp_sipser"),
    ("repro.matching", "karp_sipser_parallel"),
    ("repro.matching", "ss_bfs"),
    ("repro.matching", "ss_dfs"),
    ("repro.matching", "ms_bfs"),
    ("repro.matching", "hopcroft_karp"),
    ("repro.matching", "pothen_fan"),
    ("repro.matching", "push_relabel"),
    ("repro.graph", "permute"),
    ("repro.apps", "dulmage_mendelsohn"),
]
"""Exported functions that share their submodule's name."""

TOP_LEVEL_SUBPACKAGES = (
    "core", "errors", "graph", "instrument", "matching", "parallel", "telemetry", "util",
)
"""Submodules that ``import repro`` alone makes reachable as attributes."""


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )


class TestExports:
    def test_exporting_packages_listed(self):
        packages = ["repro"] + [
            info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
            if info.ispkg
        ]
        with_all = {name for name in packages
                    if hasattr(importlib.import_module(name), "__all__")}
        assert with_all == set(EXPORTING_PACKAGES)

    @pytest.mark.parametrize("package_name", EXPORTING_PACKAGES)
    def test_all_resolvable(self, package_name):
        package = importlib.import_module(package_name)
        exported = getattr(package, "__all__", [])
        for name in exported:
            assert hasattr(package, name), f"{package_name}.__all__ lists missing {name}"

    def test_top_level_api_stable(self):
        required = {
            "ms_bfs_graft", "ms_bfs", "karp_sipser", "karp_sipser_parallel",
            "greedy_matching", "ss_bfs", "ss_dfs", "hopcroft_karp",
            "pothen_fan", "push_relabel", "Matching", "MatchResult",
            "is_maximum_matching", "verify_maximum", "CostModel",
            "MachineSpec", "MIRASOL", "EDISON",
        }
        assert required <= set(repro.__all__)

    def test_shared_names_listed(self):
        # An export named like its own submodule must be bound eagerly (see
        # repro._lazy); this list is what the fresh-interpreter test covers.
        shared = []
        for package_name in EXPORTING_PACKAGES:
            package = importlib.import_module(package_name)
            submodules = {info.name for info in pkgutil.iter_modules(package.__path__)}
            shared += [(package_name, name) for name in package.__all__
                       if name in submodules
                       and not isinstance(getattr(package, name), types.ModuleType)]
        assert sorted(shared) == sorted(SHARED_NAME_EXPORTS)

    @pytest.mark.parametrize("package_name,name", SHARED_NAME_EXPORTS,
                             ids=[f"{p}.{n}" for p, n in SHARED_NAME_EXPORTS])
    def test_shared_name_export_stays_a_function(self, package_name, name):
        # The submodule is imported before the package attribute is read: a
        # lazily resolved export would now be the module.
        proc = _fresh_python(
            "import importlib, types\n"
            f"importlib.import_module({package_name + '.' + name!r})\n"
            f"import repro, {package_name} as package\n"
            f"values = [package.{name}]\n"
            f"if {name!r} in repro.__all__:\n"
            f"    values.append(repro.{name})\n"
            "assert all(callable(v) and not isinstance(v, types.ModuleType)\n"
            "           for v in values), values\n"
        )
        assert proc.returncode == 0, proc.stderr

    def test_import_repro_exposes_subpackages(self):
        proc = _fresh_python(
            "import types, repro\n"
            f"for name in {TOP_LEVEL_SUBPACKAGES!r}:\n"
            "    assert isinstance(getattr(repro, name), types.ModuleType), name\n"
        )
        assert proc.returncode == 0, proc.stderr
