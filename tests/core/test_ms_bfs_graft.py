"""End-to-end behaviour of the MS-BFS-Graft driver."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import EXPECTED_MAXIMUM, reference_maximum

from repro.core.driver import ms_bfs_graft
from repro.errors import ReproError
from repro.graph.generators import random_bipartite, surplus_core_bipartite
from repro.matching.greedy import greedy_matching
from repro.matching.karp_sipser import karp_sipser
from repro.matching.verify import verify_maximum

ENGINES = ("python", "numpy", "interleaved")
FLAG_COMBOS = [
    dict(grafting=True, direction_optimizing=True),
    dict(grafting=True, direction_optimizing=False),
    dict(grafting=False, direction_optimizing=True),
    dict(grafting=False, direction_optimizing=False),
]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("flags", FLAG_COMBOS, ids=lambda f: f"g{int(f['grafting'])}d{int(f['direction_optimizing'])}")
class TestAllEnginesAllFlags:
    def test_zoo_maximum(self, engine, flags, zoo_graph):
        name, graph = zoo_graph
        result = ms_bfs_graft(graph, engine=engine, **flags)
        verify_maximum(graph, result.matching)
        if name in EXPECTED_MAXIMUM:
            assert result.cardinality == EXPECTED_MAXIMUM[name]

    def test_with_karp_sipser_init(self, engine, flags, zoo_graph):
        name, graph = zoo_graph
        init = karp_sipser(graph, seed=1).matching
        result = ms_bfs_graft(graph, init, engine=engine, **flags)
        verify_maximum(graph, result.matching)


class TestEngineEquivalence:
    @given(
        n_x=st.integers(1, 20),
        n_y=st.integers(1, 20),
        seed=st.integers(0, 500),
        density=st.floats(0.05, 0.8),
    )
    @settings(max_examples=30, deadline=None)
    def test_same_cardinality_everywhere(self, n_x, n_y, seed, density):
        graph = random_bipartite(n_x, n_y, max(1, int(density * n_x * n_y)), seed=seed)
        init = greedy_matching(graph, shuffle=True, seed=seed).matching
        expected = reference_maximum(graph)
        for engine in ENGINES:
            result = ms_bfs_graft(graph, init, engine=engine, check_invariants=True)
            assert result.cardinality == expected, engine
            verify_maximum(graph, result.matching)

    def test_python_and_numpy_same_phase_count_without_do(self):
        # With grafting+DO off, both engines are plain MS-BFS and should
        # agree on phase structure (claims may differ, phases should not).
        graph = random_bipartite(40, 40, 160, seed=2)
        init = greedy_matching(graph).matching
        py = ms_bfs_graft(graph, init, engine="python", grafting=False,
                          direction_optimizing=False)
        np_ = ms_bfs_graft(graph, init, engine="numpy", grafting=False,
                           direction_optimizing=False, emit_trace=False)
        assert py.counters.phases == np_.counters.phases
        assert py.cardinality == np_.cardinality


class TestDriverOptions:
    def test_unknown_engine(self):
        graph = random_bipartite(4, 4, 6, seed=0)
        with pytest.raises(ReproError):
            ms_bfs_graft(graph, engine="cuda")

    def test_bad_alpha(self):
        graph = random_bipartite(4, 4, 6, seed=0)
        with pytest.raises(ReproError):
            ms_bfs_graft(graph, alpha=0)

    def test_initial_not_mutated(self):
        graph = random_bipartite(20, 20, 60, seed=1)
        init = greedy_matching(graph).matching
        before = init.copy()
        ms_bfs_graft(graph, init)
        assert init == before

    def test_algorithm_names(self):
        graph = random_bipartite(6, 6, 12, seed=3)
        assert ms_bfs_graft(graph).algorithm == "ms-bfs-graft"
        assert ms_bfs_graft(graph, grafting=False).algorithm == "ms-bfs-do"
        assert (
            ms_bfs_graft(graph, direction_optimizing=False).algorithm == "ms-bfs-graft-td"
        )
        assert (
            ms_bfs_graft(graph, grafting=False, direction_optimizing=False).algorithm
            == "ms-bfs"
        )

    def test_trace_emission_toggle(self):
        graph = random_bipartite(10, 10, 30, seed=4)
        assert ms_bfs_graft(graph, emit_trace=True).trace is not None
        assert ms_bfs_graft(graph, emit_trace=False).trace is None

    def test_frontier_recording(self):
        graph = surplus_core_bipartite(30, 10, seed=5)
        result = ms_bfs_graft(graph)
        assert result.frontier_log is not None
        assert result.frontier_log.num_phases == result.counters.phases

    def test_breakdown_keys(self):
        graph = random_bipartite(20, 20, 80, seed=6)
        init = greedy_matching(graph, shuffle=True, seed=6).matching
        result = ms_bfs_graft(graph, init)
        assert "topdown" in result.breakdown


class TestAlphaBehaviour:
    # Paper semantics: top-down is used while |F| < numUnvisitedY / alpha,
    # so a *small* alpha keeps the threshold high (always top-down) and a
    # *large* alpha switches to bottom-up aggressively.
    def test_tiny_alpha_means_topdown_only(self):
        graph = surplus_core_bipartite(50, 25, seed=7)
        result = ms_bfs_graft(graph, alpha=1e-6)
        assert result.counters.bottomup_steps == 0

    def test_large_alpha_prefers_bottomup(self):
        graph = surplus_core_bipartite(50, 25, seed=7)
        init = greedy_matching(graph, shuffle=True, seed=7).matching
        result = ms_bfs_graft(graph, init, alpha=1e6)
        assert result.counters.bottomup_steps > 0

    def test_all_alphas_correct(self):
        graph = surplus_core_bipartite(40, 30, seed=8)
        cards = {
            ms_bfs_graft(graph, alpha=a).cardinality for a in (1.5, 2, 5, 20, 1000)
        }
        assert len(cards) == 1
