"""The shared phase driver gives every engine the same result fields.

The python, numpy, interleaved and mp engines all run through
:func:`repro.core.engine_loop.run_phases`, so each of them must fill the
frontier log and the step breakdown the same way.
"""

from __future__ import annotations

import pytest

from repro.core.engine_interleaved import run_interleaved
from repro.core.engine_numpy import run_numpy
from repro.core.engine_python import run_python
from repro.core.options import GraftOptions
from repro.errors import ReproError
from repro.graph.generators import surplus_core_bipartite
from repro.matching.greedy import greedy_matching
from repro.parallel.procpool import run_mp
from repro.telemetry.session import Telemetry

ENGINES = {
    "python": run_python,
    "numpy": run_numpy,
    "interleaved": lambda g, init, opts: run_interleaved(g, init, opts, threads=4, seed=3),
    "mp": lambda g, init, opts: run_mp(g, init, opts, workers=2, min_level_items=0),
}


@pytest.fixture(scope="module")
def case():
    graph = surplus_core_bipartite(150, 90, seed=5)
    return graph, greedy_matching(graph, shuffle=True, seed=1).matching


@pytest.mark.parametrize("engine", ENGINES)
def test_frontier_log_has_one_entry_per_phase(case, engine):
    graph, init = case
    result = ENGINES[engine](graph, init, GraftOptions(record_frontiers=True))
    assert result.frontier_log is not None
    assert result.frontier_log.num_phases == result.counters.phases
    assert sum(len(p) for p in result.frontier_log.phases) == result.counters.bfs_levels


@pytest.mark.parametrize("engine", ENGINES)
def test_breakdown_keys_are_the_emitted_step_spans(case, engine):
    graph, init = case
    tel = Telemetry()
    result = ENGINES[engine](graph, init, GraftOptions(telemetry=tel))
    spans = tel.tracer.spans
    phase_ids = {s.span_id for s in spans if s.name == "phase"}
    steps = [s for s in spans if s.parent_id in phase_ids]
    assert result.counters.phases >= 2
    assert set(result.breakdown) == {s.name for s in steps}
    # One perf_counter pair around each step span: a step's breakdown
    # entry covers all of its spans and no more than the run.
    (run,) = [s for s in spans if s.name == "run" and s.pid is None]
    for name, seconds in result.breakdown.items():
        inside = sum(s.duration for s in steps if s.name == name)
        assert inside <= seconds <= run.duration


def test_interleaved_phase_limit_still_stops_the_run(case):
    graph, init = case
    with pytest.raises(ReproError, match="phase limit 1 exceeded"):
        run_interleaved(graph, init, GraftOptions(), max_phases=1)
