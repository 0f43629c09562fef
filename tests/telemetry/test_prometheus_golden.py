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

Regenerate a file only for a deliberate change to what the registry
records, and say why in CHANGES.md.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.driver import ms_bfs_graft
from repro.graph.generators import random_bipartite, rmat_bipartite
from repro.service.executor import BatchExecutor, ManualClock
from repro.service.jobs import JobSpec
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


@pytest.mark.parametrize("engine", ("python", "numpy", "interleaved"))
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_engine_run_text(graph_name, engine):
    assert engine_text(graph_name, engine) == _golden(f"{graph_name}-{engine}")


def test_deadline_batch_text(tmp_path):
    assert deadline_batch_text(tmp_path / "run") == _golden("batch-deadline")


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
