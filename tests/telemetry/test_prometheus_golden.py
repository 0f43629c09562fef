"""The Prometheus text an engine run leaves behind, pinned byte for byte.

Each case runs one engine (or one batch job) with a live
:class:`~repro.telemetry.session.Telemetry` session and compares
``prometheus_text`` of its registry with a file under ``prom_golden/``.
The engine cases are the parity ``er`` and ``rmat`` graphs
(``tests/core/test_engine_loop_parity.py``) on the python, numpy and
interleaved engines with the default flags. The batch case is a numpy job
whose deadline expires at the start of its third phase: the registry
holds the per-level families and ``repro_phases_total`` of the two phases
the run finished, and none of the families written at the end of a run
(augmentations, path lengths, grafts, rebuilds), since the run has no end.
The daemon case is a scripted online session (create, update, match,
snapshot, a request for an unknown session, an unknown command, a second create that evicts the first
session, close) on a daemon whose clock ticks a fixed step per reading,
rendered the way a scrape renders it.

Regenerate a file only for a deliberate change to what the registry
records, and say why in CHANGES.md.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import pytest

from repro.core.driver import ms_bfs_graft
from repro.graph.generators import random_bipartite, rmat_bipartite
from repro.service.executor import BatchExecutor, ManualClock
from repro.service.jobs import JobSpec
from repro.service.online import MatchingDaemon, OnlineConfig
from repro.telemetry.exporters import prometheus_text
from repro.telemetry.session import Telemetry

GOLDEN_DIR = Path(__file__).parent / "prom_golden"

GRAPHS = {
    "rmat": lambda: rmat_bipartite(7, edge_factor=4, seed=11),
    "er": lambda: random_bipartite(120, 100, 400, seed=3),
}


def _golden(name: str) -> str:
    return (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")


def engine_text(graph_name: str, engine: str) -> str:
    tel = Telemetry()
    ms_bfs_graft(GRAPHS[graph_name](), engine=engine, threads=4, seed=7, telemetry=tel)
    return prometheus_text(tel.metrics)


def deadline_batch_text(run_dir: Path) -> str:
    tel = Telemetry()
    job = JobSpec(
        job_id="rmat-deadline",
        graph={"suite": "rmat", "scale": 0.1},
        engine="numpy",
        deadline_seconds=0.2,
    )
    [outcome] = BatchExecutor(
        run_dir, slow_phase_seconds=0.15, clock=ManualClock(), telemetry=tel
    ).run_batch([job])
    assert outcome.status == "timeout"
    return prometheus_text(tel.metrics)


DAEMON_SCRIPT = (
    {"cmd": "create", "session": "a", "n_x": 6, "n_y": 6, "edges": [[0, 0], [1, 1]]},
    {"cmd": "update", "session": "a", "inserts": [[2, 2], [3, 2], [3, 3]],
     "deletes": [[0, 0]]},
    {"cmd": "match", "session": "a", "verify": True},
    {"cmd": "snapshot", "session": "a"},
    {"cmd": "update", "session": "ghost", "inserts": [[0, 0]]},
    {"cmd": "frobnicate"},
    {"cmd": "create", "session": "b", "n_x": 2, "n_y": 2},
    {"cmd": "close", "session": "b"},
)


def daemon_session(tmp: Path):
    """Run :data:`DAEMON_SCRIPT` on a one-session daemon; returns
    ``(daemon, replies)``. The clock ticks 1 ms per reading."""
    ticks = itertools.count()
    daemon = MatchingDaemon(
        OnlineConfig(socket_path=tmp / "d.sock", max_sessions=1, cache_dir=tmp / "cache"),
        telemetry=Telemetry(),
        clock=lambda: next(ticks) * 1e-3,
        wall=lambda: 1.0e9,
    )
    replies = [
        daemon.handle_line(json.dumps({"id": i, **request}))
        for i, request in enumerate(DAEMON_SCRIPT, 1)
    ]
    return daemon, replies


def daemon_text(tmp: Path) -> str:
    daemon, replies = daemon_session(tmp)
    assert [r["ok"] for r in replies] == [True] * 4 + [False] * 2 + [True] * 2
    return daemon.prometheus_exposition()


@pytest.mark.parametrize("engine", ("python", "numpy", "interleaved"))
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_engine_run_text(graph_name, engine):
    assert engine_text(graph_name, engine) == _golden(f"{graph_name}-{engine}")


def test_deadline_batch_text(tmp_path):
    assert deadline_batch_text(tmp_path / "run") == _golden("batch-deadline")


def test_daemon_session_text(tmp_path):
    assert daemon_text(tmp_path) == _golden("daemon-session")


def test_daemon_stats_agree_with_registry(tmp_path):
    daemon, _ = daemon_session(tmp_path)
    registry = daemon.telemetry.metrics
    served = sum(
        inst.value
        for name, _, _, instruments in registry.families()
        if name == "repro_online_requests_total"
        for inst in instruments
    )
    # stats reports the requests before itself, which the registry holds now
    stats = daemon.handle_line(json.dumps({"id": 99, "cmd": "stats"}))["result"]
    assert stats["requests_served"] == served == len(DAEMON_SCRIPT)
    evictions = registry.get("repro_online_session_evictions_total").value
    assert stats["evictions"] == evictions == 1


if __name__ == "__main__":  # regenerate the golden files
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    for graph_name in GRAPHS:
        for engine in ("python", "numpy", "interleaved"):
            text = engine_text(graph_name, engine)
            (GOLDEN_DIR / f"{graph_name}-{engine}.txt").write_text(text, encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        text = deadline_batch_text(Path(tmp) / "run")
    (GOLDEN_DIR / "batch-deadline.txt").write_text(text, encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        text = daemon_text(Path(tmp))
    (GOLDEN_DIR / "daemon-session.txt").write_text(text, encoding="utf-8")
