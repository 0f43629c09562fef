"""Cold start: what a fresh interpreter loads for each entry point.

Package exports resolve lazily (:mod:`repro._lazy`) and the CLI imports per
command, so two things can regress unseen by the in-process suite, where
every test shares one import order: an import cycle that only one entry
order closes, and a command path that loads modules it never runs. Both
are checked here in fresh interpreters.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

ENTRY_MODULES = [
    "repro",
    "repro.analysis",
    "repro.apps",
    "repro.bench",
    "repro.bench.experiments",
    "repro.cache",
    "repro.core",
    "repro.distributed",
    "repro.graph",
    "repro.instrument",
    "repro.matching",
    "repro.parallel",
    "repro.service",
    "repro.telemetry",
    "repro.util",
    "repro.cli",
    "repro.service.online",
]
"""The package, each subpackage, and the two process entry points."""

_COLD_IMPORT = """\
import importlib, sys
module = importlib.import_module(sys.argv[1])
for name in getattr(module, "__all__", ()):
    getattr(module, name)
"""

_SERVE_PATH = """\
import json, sys
from repro.cli import build_parser
build_parser()
from repro.service.online import MatchingDaemon, OnlineConfig
daemon = MatchingDaemon(OnlineConfig(socket_path="unused.sock"))
for request in (
    {"id": 1, "cmd": "create", "session": "g", "n_x": 6, "n_y": 6,
     "edges": [[0, 0], [1, 1], [2, 1]]},
    {"id": 2, "cmd": "update", "session": "g", "inserts": [[2, 2]]},
):
    response = daemon.handle_line(json.dumps(request))
    assert response["ok"], response
print(json.dumps(sorted(sys.modules)))
"""

_RUN_PATH = """\
import contextlib, io, json, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["run", "--graph", "rmat", "--scale", "0.1"]) == 0
print(json.dumps(sorted(sys.modules)))
"""


def _python(*args: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env={**os.environ, "PYTHONPATH": SRC},
    )


def _loaded(script: str) -> list[str]:
    proc = _python("-c", script)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    return json.loads(out)


def _matching(modules: list[str], prefixes: tuple[str, ...]) -> list[str]:
    """Modules equal to a prefix or inside the package it names."""
    return [m for m in modules
            if any(m == p or m.startswith(p + ".") for p in prefixes)]


def test_each_entry_module_imports_first():
    # Two interpreters at a time keeps the sweep to a few seconds.
    failures = []
    for start in range(0, len(ENTRY_MODULES), 2):
        batch = [(name, _python("-c", _COLD_IMPORT, name))
                 for name in ENTRY_MODULES[start:start + 2]]
        for name, proc in batch:
            _, err = proc.communicate(timeout=120)
            if proc.returncode != 0:
                failures.append(f"{name}: {err.strip().splitlines()[-1]}")
    assert not failures, failures


def test_serve_path_loads_no_offline_code():
    modules = _loaded(_SERVE_PATH)
    assert "repro.service.online" in modules
    assert _matching(modules, (
        "repro.bench.experiments",
        "repro.bench.kernels_bench",
        "repro.parallel.simulator",
        "repro.parallel.cost_model",
        "repro.core.engine_interleaved",
        "repro.service.executor",
        "repro.service.jobs",
        "repro.distributed",
        "repro.apps",
        "repro.analysis",
    )) == []


def test_run_path_loads_no_experiment_or_service_code():
    modules = _loaded(_RUN_PATH)
    assert "repro.core.engine_numpy" in modules
    assert _matching(modules, ("repro.bench.experiments", "repro.service")) == []
