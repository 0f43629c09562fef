import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.driver import ms_bfs_graft
from repro.errors import VerificationError
from repro.graph.builder import from_edges
from repro.graph.generators import complete_bipartite, planted_matching, random_bipartite
from repro.matching.base import Matching
from repro.matching.verify import hall_violator


def violator_of(graph):
    result = ms_bfs_graft(graph, emit_trace=False)
    return result, hall_violator(graph, result.matching)


class TestHallViolator:
    def test_perfect_matching_gives_zero_defect(self):
        g = planted_matching(20, extra_edges=30, seed=0)
        result, s = violator_of(g)
        assert s.size - _neighborhood_size(g, s) == 0

    def test_structural_deficiency_witnessed(self):
        # Three rows all confined to one column: defect 2.
        g = from_edges(3, 3, [(0, 0), (1, 0), (2, 0)])
        result, s = violator_of(g)
        assert result.cardinality == 1
        assert s.size - _neighborhood_size(g, s) == 2

    def test_tall_complete_graph(self):
        g = complete_bipartite(7, 3)
        result, s = violator_of(g)
        assert s.size - _neighborhood_size(g, s) == 4

    def test_rejects_non_maximum(self):
        g = from_edges(2, 2, [(0, 0), (1, 0), (1, 1)])
        with pytest.raises(VerificationError):
            hall_violator(g, Matching.from_pairs(2, 2, [(1, 0)]))

    @given(
        n_x=st.integers(1, 20),
        n_y=st.integers(1, 20),
        seed=st.integers(0, 300),
    )
    @settings(max_examples=30, deadline=None)
    def test_defect_identity(self, n_x, n_y, seed):
        """Hall's defect theorem: max_S(|S| - |N(S)|) = n_x - |M|."""
        g = random_bipartite(n_x, n_y, min(n_x * n_y, 2 * n_x), seed=seed)
        result, s = violator_of(g)
        assert s.size - _neighborhood_size(g, s) == g.n_x - result.cardinality


def _neighborhood_size(graph, s) -> int:
    out = set()
    for x in s:
        out.update(int(y) for y in graph.neighbors_x(int(x)))
    return len(out)
