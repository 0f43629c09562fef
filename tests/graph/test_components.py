from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.driver import ms_bfs_graft
from repro.graph.builder import from_edges
from repro.graph.components import (
    connected_components,
    extract_component,
    match_by_components,
)
from repro.graph.generators import complete_bipartite, random_bipartite
from repro.matching.hopcroft_karp import hopcroft_karp
from repro.matching.verify import verify_maximum


def disjoint_blocks(sizes, seed=0):
    """A graph made of disjoint complete-bipartite blocks."""
    edges = []
    off_x = off_y = 0
    for a, b in sizes:
        edges += [(off_x + i, off_y + j) for i in range(a) for j in range(b)]
        off_x += a
        off_y += b
    return from_edges(off_x, off_y, edges)


class TestConnectedComponents:
    def test_disjoint_blocks(self):
        g = disjoint_blocks([(2, 3), (4, 1), (1, 1)])
        labels = connected_components(g)
        assert labels.num_components == 3
        sizes = sorted(labels.component_sizes().tolist())
        assert sizes == [2, 5, 5]

    def test_isolated_vertices_own_components(self):
        g = from_edges(3, 3, [(0, 0)])
        labels = connected_components(g)
        assert labels.num_components == 1 + 2 + 2  # the edge + 4 isolated

    def test_single_component(self):
        g = complete_bipartite(3, 4)
        assert connected_components(g).num_components == 1

    def test_empty_graph(self):
        g = from_edges(0, 0, [])
        assert connected_components(g).num_components == 0

    def test_labels_consistent_with_edges(self):
        g = random_bipartite(30, 30, 60, seed=1)
        labels = connected_components(g)
        for x, y in g.edges():
            assert labels.label_x[x] == labels.label_y[y]


class TestExtractComponent:
    def test_subgraph_structure(self):
        g = disjoint_blocks([(2, 3), (4, 1)])
        labels = connected_components(g)
        component = int(labels.label_x[0])
        sub, x_ids, y_ids = extract_component(g, labels, component)
        assert sub.n_x == 2 and sub.n_y == 3
        assert sub.nnz == 6
        assert x_ids.tolist() == [0, 1]

    def test_edges_preserved(self):
        g = random_bipartite(20, 20, 40, seed=2)
        labels = connected_components(g)
        total_edges = sum(
            extract_component(g, labels, c)[0].nnz
            for c in range(labels.num_components)
        )
        assert total_edges == g.nnz


class TestMatchByComponents:
    def test_matches_whole_graph_answer(self):
        g = disjoint_blocks([(3, 2), (1, 4), (5, 5)])
        whole = ms_bfs_graft(g, emit_trace=False)
        per_component = match_by_components(g)
        assert per_component.cardinality == whole.cardinality
        verify_maximum(g, per_component.matching)
        assert per_component.algorithm.endswith("+components")

    def test_custom_algorithm(self):
        g = disjoint_blocks([(2, 2), (3, 3)])
        result = match_by_components(g, algorithm=hopcroft_karp)
        assert result.cardinality == 5
        verify_maximum(g, result.matching)

    def test_empty_graph(self):
        g = from_edges(4, 4, [])
        result = match_by_components(g)
        assert result.cardinality == 0

    @given(
        n_x=st.integers(1, 20),
        n_y=st.integers(1, 20),
        seed=st.integers(0, 200),
        density=st.floats(0.02, 0.3),
    )
    @settings(max_examples=30, deadline=None)
    def test_decomposition_property(self, n_x, n_y, seed, density):
        """Maximum matching decomposes over connected components."""
        nnz = max(1, int(density * n_x * n_y))
        g = random_bipartite(n_x, n_y, nnz, seed=seed)
        whole = ms_bfs_graft(g, emit_trace=False).cardinality
        assert match_by_components(g).cardinality == whole
