import pytest

from repro.bench.runner import (
    ALGORITHMS,
    ENGINE_AWARE,
    PARALLEL_ALGORITHMS,
    run_algorithm,
    simulated_seconds,
    suite_initializer,
)
from repro.core.options import Deadline
from repro.errors import BenchmarkError
from repro.graph.generators import random_bipartite, surplus_core_bipartite
from repro.matching.verify import is_maximal_matching, verify_maximum
from repro.parallel.machine import MIRASOL
from repro.telemetry import Telemetry


@pytest.fixture(scope="module")
def graph():
    return surplus_core_bipartite(60, 30, seed=1)


class TestRegistry:
    def test_all_nine_algorithms(self):
        assert len(ALGORITHMS) == 9
        assert set(PARALLEL_ALGORITHMS) <= set(ALGORITHMS)

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_each_algorithm_runs_maximum(self, name, graph):
        result = run_algorithm(name, graph, seed=0)
        verify_maximum(graph, result.matching)

    def test_unknown_algorithm(self, graph):
        with pytest.raises(BenchmarkError):
            run_algorithm("quantum", graph)

    def test_unknown_initialiser(self, graph):
        with pytest.raises(BenchmarkError):
            run_algorithm("ms-bfs-graft", graph, init="magic")

    def test_init_none_runs_from_empty(self, graph):
        result = run_algorithm("ms-bfs-graft", graph, init="none")
        verify_maximum(graph, result.matching)

    def test_serial_karp_sipser_init(self, graph):
        result = run_algorithm("ms-bfs-graft", graph, init="karp-sipser")
        verify_maximum(graph, result.matching)


class TestDriverKeywords:
    """Every keyword ``run_algorithm`` forwards reaches each driver-backed
    algorithm, and ``workers`` (kept for older callers) is never forwarded."""

    @pytest.mark.parametrize("keyword", ["engine", "deadline", "phase_hook", "telemetry"])
    @pytest.mark.parametrize("name", ENGINE_AWARE)
    def test_forwarded_keyword_accepted(self, name, keyword, graph):
        phases = []
        value = {
            "engine": "numpy",
            "deadline": Deadline(600.0),
            "phase_hook": phases.append,
            "telemetry": Telemetry(),
        }[keyword]
        result = run_algorithm(name, graph, **{keyword: value})
        verify_maximum(graph, result.matching)
        if keyword == "phase_hook":
            assert phases == list(range(1, result.counters.phases + 1))
        if keyword == "telemetry":
            assert value.tracer.by_name("run")

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_workers_accepted_and_ignored(self, name, graph):
        with_workers = run_algorithm(name, graph, workers=2)
        without = run_algorithm(name, graph)
        assert (with_workers.matching.mate_x == without.matching.mate_x).all()


class TestSuiteInitializer:
    def test_maximal(self, graph):
        init = suite_initializer(graph, seed=0)
        assert is_maximal_matching(graph, init)

    def test_seed_sensitivity(self):
        g = random_bipartite(60, 60, 300, seed=2)
        a = suite_initializer(g, seed=1)
        b = suite_initializer(g, seed=2)
        assert a != b


class TestSimulatedSeconds:
    def test_parallel_trio_all_have_traces(self, graph):
        for name in PARALLEL_ALGORITHMS:
            result = run_algorithm(name, graph, seed=0)
            sim = simulated_seconds(result, MIRASOL, 40)
            assert sim.seconds > 0
            assert sim.machine == "Mirasol"

    def test_missing_trace_raises(self, graph):
        result = run_algorithm("ss-bfs", graph, seed=0)
        with pytest.raises(BenchmarkError):
            simulated_seconds(result, MIRASOL, 4)
