from repro.bench.runner import run_algorithm
from repro.graph.generators import surplus_core_bipartite
from repro.instrument.report import run_report
from repro.parallel.machine import EDISON


class TestRunReport:
    def test_contains_key_metrics(self):
        graph = surplus_core_bipartite(60, 30, seed=0)
        result = run_algorithm("ms-bfs-graft", graph, seed=0, emit_trace=True)
        report = run_report(result)
        assert "|M|" in report
        assert "edges traversed" in report
        assert "simulated Mirasol" in report

    def test_machine_selection(self):
        graph = surplus_core_bipartite(60, 30, seed=0)
        result = run_algorithm("ms-bfs-graft", graph, seed=0, emit_trace=True)
        report = run_report(result, machine=EDISON, threads=24)
        assert "Edison" in report
        assert "@ 24 threads" in report

    def test_without_machine(self):
        graph = surplus_core_bipartite(40, 20, seed=1)
        result = run_algorithm("ms-bfs-graft", graph, seed=0)
        report = run_report(result, machine=None)
        assert "simulated" not in report

    def test_trace_free_algorithm(self):
        graph = surplus_core_bipartite(40, 20, seed=1)
        result = run_algorithm("ss-bfs", graph, seed=0)
        report = run_report(result)
        assert "ss-bfs" in report
        # No trace -> an explicit n/a line instead of the simulation block.
        assert "simulated        : n/a (no work trace)" in report
        assert "simulated Mirasol" not in report
        assert "simulated shares" not in report

    def test_untraced_run_says_so(self):
        graph = surplus_core_bipartite(40, 20, seed=1)
        result = run_algorithm("ms-bfs-graft", graph, seed=0)
        assert result.trace is None
        assert "n/a (no work trace)" in run_report(result)
