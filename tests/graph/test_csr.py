import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.builder import from_edges
from repro.graph.csr import INDEX_DTYPE, BipartiteCSR


@pytest.fixture
def small():
    return from_edges(3, 4, [(0, 1), (0, 3), (1, 0), (2, 2), (2, 3)])


class TestBasicProperties:
    def test_counts(self, small):
        assert small.n_x == 3
        assert small.n_y == 4
        assert small.nnz == 5
        assert small.num_vertices == 7
        assert small.num_directed_edges == 10

    def test_degree_vectors(self, small):
        assert np.array_equal(small.degree_x(), [2, 1, 2])
        assert np.array_equal(small.degree_y(), [1, 1, 1, 2])

    def test_single_degree(self, small):
        assert small.degree_x(0) == 2
        assert small.degree_y(3) == 2

    def test_neighbors_sorted(self, small):
        assert np.array_equal(small.neighbors_x(0), [1, 3])
        assert np.array_equal(small.neighbors_y(3), [0, 2])

    def test_has_edge(self, small):
        assert small.has_edge(0, 1)
        assert small.has_edge(2, 2)
        assert not small.has_edge(0, 0)
        assert not small.has_edge(1, 3)

    def test_edges_iteration(self, small):
        assert sorted(small.edges()) == [(0, 1), (0, 3), (1, 0), (2, 2), (2, 3)]

    def test_edge_arrays_match_edges(self, small):
        xs, ys = small.edge_arrays()
        assert sorted(zip(xs.tolist(), ys.tolist())) == sorted(small.edges())

    def test_repr(self, small):
        assert "nnz=5" in repr(small)


class TestImmutability:
    def test_arrays_read_only(self, small):
        with pytest.raises(ValueError):
            small.x_adj[0] = 0

    def test_neighbors_view_read_only(self, small):
        with pytest.raises(ValueError):
            small.neighbors_x(0)[0] = 9


class TestTranspose:
    def test_roundtrip(self, small):
        t = small.transpose()
        assert t.n_x == small.n_y and t.n_y == small.n_x
        assert sorted(t.edges()) == sorted((y, x) for x, y in small.edges())
        assert t.transpose() == small


class TestEquality:
    def test_equal_graphs(self, small):
        other = from_edges(3, 4, [(0, 1), (0, 3), (1, 0), (2, 2), (2, 3)])
        assert small == other

    def test_unequal_graphs(self, small):
        assert small != from_edges(3, 4, [(0, 1)])

    def test_not_implemented_for_other_types(self, small):
        assert small.__eq__(42) is NotImplemented


class TestValidation:
    def test_bad_ptr_shape(self):
        with pytest.raises(GraphError):
            BipartiteCSR(
                2, 2,
                np.array([0, 1]),  # should be length 3
                np.array([0]),
                np.array([0, 1, 1]),
                np.array([0]),
            )

    def test_decreasing_ptr(self):
        with pytest.raises(GraphError):
            BipartiteCSR(
                2, 2,
                np.array([0, 2, 1]),
                np.array([0, 1]),
                np.array([0, 1, 2]),
                np.array([0, 0]),
            )

    def test_out_of_range_target(self):
        with pytest.raises(GraphError):
            BipartiteCSR(
                1, 1,
                np.array([0, 1]),
                np.array([5]),
                np.array([0, 1]),
                np.array([0]),
            )

    def test_mismatched_directions(self):
        # x-side says (0,0); y-side says (0,1) -> inconsistent.
        with pytest.raises(GraphError):
            BipartiteCSR(
                2, 2,
                np.array([0, 1, 1]),
                np.array([0]),
                np.array([0, 0, 1]),
                np.array([1]),
            )

    def test_unsorted_row(self):
        with pytest.raises(GraphError):
            BipartiteCSR(
                1, 2,
                np.array([0, 2]),
                np.array([1, 0]),  # not sorted
                np.array([0, 1, 2]),
                np.array([0, 0]),
            )

    def test_descending_pair_inside_x_row(self):
        # edges (0,1), (1,2), (1,0); x row 1 is stored as [2, 0]
        with pytest.raises(GraphError, match=r"row of x=1 is not strictly"):
            BipartiteCSR(
                3, 3,
                np.array([0, 1, 3, 3]),
                np.array([1, 2, 0]),
                np.array([0, 1, 2, 3]),
                np.array([1, 0, 1]),
            )

    def test_descending_pair_inside_y_row(self):
        # edges (0,0), (1,0), (2,1); y row 0 is stored as [1, 0]
        with pytest.raises(GraphError, match=r"row of y=0 is not strictly"):
            BipartiteCSR(
                3, 3,
                np.array([0, 1, 2, 3]),
                np.array([0, 0, 1]),
                np.array([0, 2, 3, 3]),
                np.array([1, 0, 2]),
            )

    def test_drop_across_row_boundary_is_valid(self):
        # edges (0,2), (2,0), (2,1) with x row 1 empty: x_adj drops 2 -> 0
        # and y_adj repeats 2, 2 -> 0, each only where a new row starts
        g = BipartiteCSR(
            4, 3,
            np.array([0, 1, 1, 3, 3]),
            np.array([2, 0, 1]),
            np.array([0, 1, 2, 3]),
            np.array([2, 2, 0]),
        )
        assert sorted(g.edges()) == [(0, 2), (2, 0), (2, 1)]

    def test_from_sorted_keys(self, small):
        xs, ys = small.edge_arrays()
        g = BipartiteCSR.from_sorted_keys(
            3, 4, np.sort(xs * 4 + ys), np.sort(ys * 3 + xs)
        )
        g._validate()
        assert g == small
        assert np.array_equal(g.y_ptr, small.y_ptr)
        assert np.array_equal(g.y_adj, small.y_adj)

    def test_empty_graph_valid(self):
        g = BipartiteCSR(0, 0, np.array([0]), np.array([]), np.array([0]), np.array([]))
        assert g.nnz == 0

    def test_index_dtype(self, small):
        assert small.x_adj.dtype == INDEX_DTYPE
        assert small.y_ptr.dtype == INDEX_DTYPE
