"""Counter semantics across the matching algorithms (Fig. 1 inputs)."""


from repro.graph.generators import chain_graph, planted_matching, random_bipartite
from repro.matching.base import Matching
from repro.matching.greedy import greedy_matching
from repro.matching.hopcroft_karp import hopcroft_karp
from repro.matching.ms_bfs import ms_bfs
from repro.matching.pothen_fan import pothen_fan
from repro.matching.ss_bfs import ss_bfs
from repro.matching.ss_dfs import ss_dfs


def alternating_chain_init(k):
    """Greedy-matched chain: one augmenting path of length 2k-1 remains."""
    g = chain_graph(k)
    # Match the crossing edges (x_{i+1}, y_i): leaves x0 and y_{k-1} free
    # with the full-length augmenting path between them.
    m = Matching.from_pairs(k, k, [(i + 1, i) for i in range(k - 1)])
    return g, m


class TestPathLengths:
    def test_chain_single_long_path(self):
        g, m = alternating_chain_init(10)
        for algo in (ss_bfs, ss_dfs, hopcroft_karp, pothen_fan):
            result = algo(g, m)
            assert result.counters.augmentations == 1
            assert result.counters.avg_augmenting_path_length == 19

    def test_ms_bfs_chain(self):
        g, m = alternating_chain_init(8)
        result = ms_bfs(g, m, emit_trace=False)
        assert result.counters.augmentations == 1
        assert result.counters.avg_augmenting_path_length == 15

    def test_path_lengths_odd(self):
        g = random_bipartite(30, 30, 120, seed=0)
        for algo in (ss_bfs, ss_dfs, hopcroft_karp, pothen_fan):
            result = algo(g)
            assert all(length % 2 == 1 for length in result.counters.path_lengths)

    def test_total_equals_sum(self):
        result = ss_bfs(random_bipartite(25, 25, 100, seed=1))
        c = result.counters
        assert c.total_augmenting_path_length == sum(c.path_lengths)
        assert c.augmentations == len(c.path_lengths)


class TestEdgesTraversed:
    def test_positive_when_searching(self):
        g = planted_matching(30, extra_edges=40, seed=2)
        for algo in (ss_bfs, ss_dfs, hopcroft_karp, pothen_fan):
            assert algo(g).counters.edges_traversed > 0

    def test_ss_dfs_traverses_most_on_dense(self):
        # The classical ordering (Fig. 1a): DFS >> BFS on near-regular graphs.
        g = planted_matching(150, extra_edges=1500, seed=3)
        init = greedy_matching(g, shuffle=True, seed=9).matching
        dfs_edges = ss_dfs(g, init).counters.edges_traversed
        bfs_edges = ss_bfs(g, init).counters.edges_traversed
        assert dfs_edges >= bfs_edges

    def test_augmentations_equal_cardinality_gain(self):
        g = planted_matching(60, extra_edges=120, seed=4)
        init = greedy_matching(g, shuffle=True, seed=5).matching
        for algo in (ss_bfs, ss_dfs, hopcroft_karp, pothen_fan):
            result = algo(g, init)
            assert result.counters.augmentations == result.cardinality - init.cardinality


class TestPhases:
    def test_ss_phases_equal_searches(self):
        g = planted_matching(40, extra_edges=60, seed=6)
        init = greedy_matching(g, shuffle=True, seed=7).matching
        unmatched = 40 - init.cardinality
        result = ss_bfs(g, init)
        assert result.counters.phases == unmatched

    def test_hk_final_phase_counted(self):
        # HK runs one extra (empty) phase to prove optimality.
        g = chain_graph(5)
        init = Matching.from_pairs(5, 5, [(i, i) for i in range(5)])
        result = hopcroft_karp(g, init)
        assert result.counters.phases == 1
        assert result.counters.augmentations == 0

    def test_pf_terminating_phase(self):
        g, m = alternating_chain_init(6)
        result = pothen_fan(g, m)
        # One augmenting phase plus one empty phase.
        assert result.counters.phases == 2
