"""Edge cases and degenerate inputs across the core algorithm surface."""

import pytest

from repro.core.driver import ms_bfs_graft
from repro.graph.builder import from_edges
from repro.graph.generators import complete_bipartite, planted_matching
from repro.matching.base import Matching
from repro.matching.verify import verify_maximum

ENGINES = ("python", "numpy", "interleaved")


@pytest.mark.parametrize("engine", ENGINES)
class TestDegenerateGraphs:
    def test_no_edges(self, engine):
        graph = from_edges(5, 7, [])
        result = ms_bfs_graft(graph, engine=engine)
        assert result.cardinality == 0
        assert result.counters.phases == 1
        assert result.counters.edges_traversed == 0

    def test_empty_vertex_sets(self, engine):
        graph = from_edges(0, 0, [])
        result = ms_bfs_graft(graph, engine=engine)
        assert result.cardinality == 0

    def test_one_sided_graph(self, engine):
        graph = from_edges(4, 0, [])
        result = ms_bfs_graft(graph, engine=engine)
        assert result.cardinality == 0

    def test_star_graph(self, engine):
        # One y shared by many x: exactly one can match.
        graph = from_edges(6, 1, [(i, 0) for i in range(6)])
        result = ms_bfs_graft(graph, engine=engine)
        assert result.cardinality == 1
        verify_maximum(graph, result.matching)

    def test_already_perfect_initial(self, engine):
        graph = planted_matching(12, extra_edges=20, seed=0, shuffle=False)
        init = Matching.from_pairs(12, 12, [(i, i) for i in range(12)])
        result = ms_bfs_graft(graph, init, engine=engine)
        assert result.cardinality == 12
        # Nothing to do: a single phase proving optimality.
        assert result.counters.phases == 1
        assert result.counters.augmentations == 0

    def test_parallel_duplicate_free_targets(self, engine):
        # Every x adjacent to every y: heavy claim contention.
        graph = complete_bipartite(9, 9)
        result = ms_bfs_graft(graph, engine=engine)
        assert result.cardinality == 9

    def test_self_loop_like_diagonal(self, engine):
        graph = from_edges(3, 3, [(0, 0), (1, 1), (2, 2)])
        result = ms_bfs_graft(graph, engine=engine)
        assert result.cardinality == 3
        assert result.counters.avg_augmenting_path_length == 1.0


class TestNumpyEngineInternalEdges:
    def test_frontier_log_empty_phase(self):
        graph = from_edges(3, 3, [])
        result = ms_bfs_graft(graph)
        assert result.frontier_log.num_phases == 1
        # The three isolated roots form one recorded level that finds nothing.
        assert result.frontier_log.levels(0) == [3]

    def test_trace_when_nothing_happens(self):
        graph = from_edges(2, 2, [])
        result = ms_bfs_graft(graph, emit_trace=True)
        # Only the (empty) augment check happened; trace may be empty.
        assert result.trace is not None

    def test_isolated_unmatched_roots_are_stable(self):
        # Unmatched X vertices with zero degree must not break any phase.
        graph = from_edges(5, 5, [(0, 0), (0, 1), (1, 0)])
        result = ms_bfs_graft(graph)
        assert result.cardinality == 2
        verify_maximum(graph, result.matching)


class TestLargeishSmoke:
    def test_medium_graph_all_engines_agree(self):
        graph = planted_matching(300, extra_edges=1500, seed=5)
        from repro.matching.greedy import greedy_matching

        init = greedy_matching(graph, shuffle=True, seed=6).matching
        cards = {
            engine: ms_bfs_graft(graph, init, engine=engine).cardinality
            for engine in ENGINES
        }
        assert set(cards.values()) == {300}
