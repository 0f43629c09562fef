"""Distributed engines honor the GraftOptions phase contract (via run_phases)."""

import pytest

from repro.core.options import Deadline, GraftOptions
from repro.distributed import distributed_ms_bfs_graft
from repro.distributed.engine2d import distributed_ms_bfs_graft_2d
from repro.errors import DeadlineExceeded
from repro.graph.generators import random_bipartite
from repro.telemetry import Telemetry

ENGINES = [
    pytest.param(distributed_ms_bfs_graft, id="bsp-1d"),
    pytest.param(distributed_ms_bfs_graft_2d, id="bsp-2d"),
]


def make_graph():
    return random_bipartite(60, 60, 260, seed=7)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


@pytest.mark.parametrize("engine", ENGINES)
class TestPhaseContract:
    def test_phase_hook_called_once_per_phase(self, engine):
        seen = []
        options = GraftOptions(phase_hook=seen.append)
        result = engine(make_graph(), ranks=3, options=options)
        assert result.counters.phases >= 1
        assert seen == list(range(1, result.counters.phases + 1))

    def test_telemetry_begin_phase_mirrors_hook(self, engine):
        tel = Telemetry()
        options = GraftOptions(telemetry=tel)
        result = engine(make_graph(), ranks=3, options=options)
        phases = [span.attributes["phase"] for span in tel.tracer.by_name("phase")]
        assert phases == list(range(1, result.counters.phases + 1))

    def test_expired_deadline_raises_at_phase_boundary(self, engine):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        clock.t = 5.0  # budget already spent before the first phase
        options = GraftOptions(deadline=deadline)
        with pytest.raises(DeadlineExceeded):
            engine(make_graph(), ranks=3, options=options)

    def test_options_override_keyword_arguments(self, engine):
        graph = make_graph()
        # options wins over the conflicting keyword: bottom-up never runs.
        options = GraftOptions(direction_optimizing=False)
        result = engine(graph, ranks=3, direction_optimizing=True, options=options)
        assert result.counters.bottomup_steps == 0

    def test_cardinality_unchanged_by_options_seam(self, engine):
        graph = make_graph()
        plain = engine(graph, ranks=3)
        seamed = engine(graph, ranks=3, options=GraftOptions(phase_hook=lambda p: None))
        assert seamed.cardinality == plain.cardinality

    def test_steps_are_spans_and_breakdown(self, engine):
        tel = Telemetry()
        result = engine(make_graph(), ranks=3, options=GraftOptions(telemetry=tel))
        spans = {span.name for span in tel.tracer.spans}
        assert set(result.breakdown) == spans - {"run", "setup", "phase", "finalize"}
        assert {"augment", "statistics", "grafting"} <= set(result.breakdown)
