"""Metamorphic properties of maximum bipartite matching.

These tests never compare against a fixed expected value; they assert
relations that must hold between *pairs* of runs — classic matching-theory
facts that catch subtle algorithmic bugs that exact-value tests miss.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.driver import ms_bfs_graft
from repro.graph.builder import from_edges
from repro.graph.csr import INDEX_DTYPE
from repro.graph.generators import power_law_bipartite, random_bipartite
from repro.graph.permute import permute
from repro.matching.verify import verify_maximum


def maximum(graph) -> int:
    return ms_bfs_graft(graph, emit_trace=False).cardinality


def add_edge(graph, x, y):
    xs, ys = graph.edge_arrays()
    xs = np.concatenate([xs, [x]]).astype(INDEX_DTYPE)
    ys = np.concatenate([ys, [y]]).astype(INDEX_DTYPE)
    return from_edges(graph.n_x, graph.n_y, np.column_stack([xs, ys]))


def drop_edge(graph, index):
    xs, ys = graph.edge_arrays()
    keep = np.ones(xs.shape[0], dtype=bool)
    keep[index] = False
    return from_edges(graph.n_x, graph.n_y, np.column_stack([xs[keep], ys[keep]]))


class TestEdgeMonotonicity:
    @given(
        n=st.integers(2, 15),
        seed=st.integers(0, 200),
        x=st.integers(0, 14),
        y=st.integers(0, 14),
    )
    @settings(max_examples=30, deadline=None)
    def test_adding_an_edge_never_decreases(self, n, seed, x, y):
        graph = random_bipartite(n, n, 2 * n, seed=seed)
        bigger = add_edge(graph, x % n, y % n)
        assert maximum(bigger) >= maximum(graph)

    @given(n=st.integers(2, 15), seed=st.integers(0, 200), drop=st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_removing_an_edge_decreases_by_at_most_one(self, n, seed, drop):
        graph = random_bipartite(n, n, 2 * n, seed=seed)
        smaller = drop_edge(graph, drop % graph.nnz)
        before, after = maximum(graph), maximum(smaller)
        assert before - 1 <= after <= before

    @given(n=st.integers(2, 12), seed=st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_union_bound(self, n, seed):
        """|M(G1 ∪ G2)| <= |M(G1)| + |M(G2)|."""
        g1 = random_bipartite(n, n, n, seed=seed)
        g2 = random_bipartite(n, n, n, seed=seed + 1)
        xs1, ys1 = g1.edge_arrays()
        xs2, ys2 = g2.edge_arrays()
        union = from_edges(
            n, n,
            np.column_stack([np.concatenate([xs1, xs2]), np.concatenate([ys1, ys2])]),
        )
        assert maximum(union) <= maximum(g1) + maximum(g2)


class TestVertexProperties:
    @given(n=st.integers(2, 12), seed=st.integers(0, 200), v=st.integers(0, 11))
    @settings(max_examples=25, deadline=None)
    def test_deleting_an_x_vertex_decreases_by_at_most_one(self, n, seed, v):
        graph = random_bipartite(n, n, min(n * n, 3 * n), seed=seed)
        v = v % n
        xs, ys = graph.edge_arrays()
        keep = xs != v
        smaller = from_edges(n, n, np.column_stack([xs[keep], ys[keep]]))
        before, after = maximum(graph), maximum(smaller)
        assert before - 1 <= after <= before

    @given(n=st.integers(2, 12), seed=st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_transpose_invariance(self, n, seed):
        graph = random_bipartite(n, n + 3, 3 * n, seed=seed)
        assert maximum(graph) == maximum(graph.transpose())


class TestPermutationInvariance:
    """Relabelling vertices must not change the maximum — per backend.

    The vectorized kernels resolve write conflicts by frontier position
    (first-claim scatter), so vertex numbering changes *which* maximum
    matching they find; the cardinality and the maximality certificate must
    be invariant anyway. This is the metamorphic guard for the numpy bulk
    kernels: an indexing bug that silently favours low vertex ids shows up
    as a permutation-dependent cardinality.
    """

    @given(n=st.integers(3, 16), seed=st.integers(0, 200), pseed=st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_numpy_backend_row_permutation(self, n, seed, pseed):
        graph = random_bipartite(n, n + 1, 3 * n, seed=seed)
        shuffled, _, _ = permute(
            graph, y_perm=np.arange(graph.n_y, dtype=INDEX_DTYPE), seed=pseed
        )
        a = ms_bfs_graft(graph, engine="numpy", emit_trace=False)
        b = ms_bfs_graft(shuffled, engine="numpy", emit_trace=False)
        assert a.cardinality == b.cardinality
        verify_maximum(shuffled, b.matching)

    @given(n=st.integers(3, 16), seed=st.integers(0, 200), pseed=st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_numpy_backend_column_permutation(self, n, seed, pseed):
        graph = random_bipartite(n + 1, n, 3 * n, seed=seed)
        shuffled, _, _ = permute(
            graph, x_perm=np.arange(graph.n_x, dtype=INDEX_DTYPE), seed=pseed
        )
        a = ms_bfs_graft(graph, engine="numpy", emit_trace=False)
        b = ms_bfs_graft(shuffled, engine="numpy", emit_trace=False)
        assert a.cardinality == b.cardinality
        verify_maximum(shuffled, b.matching)

    @given(n=st.integers(3, 14), seed=st.integers(0, 200), pseed=st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_full_relabel_backends_agree(self, n, seed, pseed):
        """Both-sides relabel; python and numpy agree before AND after."""
        graph = power_law_bipartite(n, n, avg_degree=3.0, seed=seed)
        shuffled, _, _ = permute(graph, seed=pseed)
        numpy_card = ms_bfs_graft(shuffled, engine="numpy", emit_trace=False).cardinality
        python_card = ms_bfs_graft(shuffled, engine="python", emit_trace=False).cardinality
        assert numpy_card == python_card == maximum(graph)


class TestDualityBounds:
    @given(n_x=st.integers(1, 12), n_y=st.integers(1, 12), seed=st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_upper_bounds(self, n_x, n_y, seed):
        graph = random_bipartite(n_x, n_y, min(n_x * n_y, 2 * max(n_x, n_y)), seed=seed)
        m = maximum(graph)
        deg_x = graph.degree_x()
        assert m <= min(n_x, n_y)
        assert m <= int(np.count_nonzero(deg_x > 0))  # non-isolated rows
        assert m <= graph.nnz
