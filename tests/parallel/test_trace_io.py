import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.parallel.cost_model import CostModel
from repro.parallel.machine import MIRASOL
from repro.parallel.trace import WorkTrace
from repro.parallel.trace_io import load_trace, save_trace


def make_trace():
    t = WorkTrace()
    t.add("topdown", np.array([1.0, 2.0, 3.0]), atomics=5, queue_appends=2)
    t.add("dfs", np.array([9.0]), schedule="dynamic", memory_pattern="irregular")
    t.add("serial", np.array([4.0]), sequential=True)
    t.add_uniform("statistics", 100, 0.5)
    return t


class TestTraceRoundtrip:
    def test_roundtrip_preserves_everything(self, tmp_path):
        trace = make_trace()
        path = tmp_path / "t.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.num_barriers == trace.num_barriers
        for a, b in zip(trace.regions, loaded.regions):
            assert a.kind == b.kind
            assert np.array_equal(a.item_costs, b.item_costs)
            assert a.atomics == b.atomics
            assert a.queue_appends == b.queue_appends
            assert a.sequential == b.sequential
            assert a.schedule == b.schedule
            assert a.memory_pattern == b.memory_pattern
            assert a.uniform_items == b.uniform_items
            assert a.uniform_cost == b.uniform_cost

    def test_identical_simulated_times(self, tmp_path):
        trace = make_trace()
        path = tmp_path / "t.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        model = CostModel(MIRASOL)
        for threads in (1, 8, 40):
            assert model.simulate(trace, threads).seconds == pytest.approx(
                model.simulate(loaded, threads).seconds
            )

    def test_real_algorithm_trace(self, tmp_path):
        from repro.bench.runner import run_algorithm
        from repro.graph.generators import surplus_core_bipartite

        graph = surplus_core_bipartite(200, 120, seed=0)
        result = run_algorithm("ms-bfs-graft", graph, seed=0, emit_trace=True)
        path = tmp_path / "t.npz"
        save_trace(result.trace, path)
        loaded = load_trace(path)
        assert loaded.total_work == pytest.approx(result.trace.total_work)

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "t.npz"
        save_trace(WorkTrace(), path)
        assert load_trace(path).num_barriers == 0

    def test_rejects_other_npz(self, tmp_path):
        path = tmp_path / "x.npz"
        np.savez(path, a=np.arange(2))
        with pytest.raises(GraphFormatError):
            load_trace(path)
