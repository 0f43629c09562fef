"""Builders converting external representations into :class:`BipartiteCSR`.

All builders deduplicate parallel edges, sort adjacency rows, and construct
both adjacency directions so that the result always satisfies the CSR
invariants checked by :class:`~repro.graph.csr.BipartiteCSR`.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import INDEX_DTYPE, BipartiteCSR, edge_keys


def from_edges(
    n_x: int,
    n_y: int,
    edges: Iterable[Tuple[int, int]] | np.ndarray | Sequence[Tuple[int, int]],
    *,
    validate: bool = True,
) -> BipartiteCSR:
    """Build a graph from ``(x, y)`` edge pairs.

    Accepts any iterable of pairs or an ``(m, 2)`` array. Out-of-range
    endpoints raise :class:`~repro.errors.GraphError`; duplicate edges are
    silently merged.
    """
    arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GraphError(f"edge array must have shape (m, 2), got {arr.shape}")
    xs = arr[:, 0].astype(INDEX_DTYPE)
    ys = arr[:, 1].astype(INDEX_DTYPE)
    if xs.size:
        if xs.min() < 0 or xs.max() >= n_x:
            raise GraphError("edge endpoint out of range on the X side")
        if ys.min() < 0 or ys.max() >= n_y:
            raise GraphError("edge endpoint out of range on the Y side")
    return _from_edge_arrays(n_x, n_y, xs, ys, validate=validate)


def _from_edge_arrays(
    n_x: int, n_y: int, xs: np.ndarray, ys: np.ndarray, *, validate: bool = True
) -> BipartiteCSR:
    """Internal: build from (already range-checked) parallel edge arrays.

    Both directions come out of one sorted, duplicate-free key array each
    (:func:`~repro.graph.csr.edge_keys`), so the CSR holds by construction
    and ``validate`` only re-checks it.
    """
    graph = BipartiteCSR.from_sorted_keys(n_x, n_y, *edge_keys(n_x, n_y, xs, ys))
    if validate:
        graph._validate()
    return graph


def from_biadjacency_lists(adjacency: Sequence[Sequence[int]], n_y: int | None = None) -> BipartiteCSR:
    """Build from a list of neighbour lists: ``adjacency[x]`` is x's Y list.

    ``n_y`` defaults to ``1 + max`` neighbour id (0 for an empty graph).
    """
    n_x = len(adjacency)
    xs: list[int] = []
    ys: list[int] = []
    for x, row in enumerate(adjacency):
        for y in row:
            xs.append(x)
            ys.append(int(y))
    if n_y is None:
        n_y = (max(ys) + 1) if ys else 0
    return from_edges(n_x, n_y, np.column_stack([xs, ys]) if xs else np.empty((0, 2), dtype=int))


def from_scipy_sparse(matrix, *, validate: bool = True) -> BipartiteCSR:
    """Build from a :mod:`scipy.sparse` biadjacency matrix.

    Rows map to X vertices and columns to Y vertices; the sparsity pattern
    defines the edges (explicit zeros are kept, matching the usual treatment
    of structural nonzeros in matching-based matrix orderings).
    """
    coo = matrix.tocoo()
    n_x, n_y = coo.shape
    xs = coo.row.astype(INDEX_DTYPE)
    ys = coo.col.astype(INDEX_DTYPE)
    return _from_edge_arrays(n_x, n_y, xs, ys, validate=validate)


def from_dense(matrix: np.ndarray) -> BipartiteCSR:
    """Build from a dense 0/1 (or truthy) biadjacency matrix."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise GraphError(f"dense biadjacency must be 2-D, got ndim={matrix.ndim}")
    xs, ys = np.nonzero(matrix)
    return _from_edge_arrays(
        matrix.shape[0], matrix.shape[1], xs.astype(INDEX_DTYPE), ys.astype(INDEX_DTYPE)
    )


def from_networkx(graph, x_nodes: Sequence | None = None) -> BipartiteCSR:
    """Build from a networkx bipartite graph.

    ``x_nodes`` selects the X side; if omitted, nodes with attribute
    ``bipartite == 0`` form the X side (networkx's own convention).
    Returns the graph along with no mapping — use stable ``sorted`` order of
    each side for vertex numbering.
    """
    if x_nodes is None:
        x_nodes = [v for v, d in graph.nodes(data=True) if d.get("bipartite") == 0]
        if not x_nodes and graph.number_of_nodes() > 0:
            raise GraphError(
                "from_networkx needs x_nodes or 'bipartite' node attributes to split sides"
            )
    x_set = set(x_nodes)
    y_nodes = sorted((v for v in graph.nodes if v not in x_set), key=repr)
    x_sorted = sorted(x_set, key=repr)
    x_index = {v: i for i, v in enumerate(x_sorted)}
    y_index = {v: i for i, v in enumerate(y_nodes)}
    edges = []
    for u, v in graph.edges():
        if u in x_index and v in y_index:
            edges.append((x_index[u], y_index[v]))
        elif v in x_index and u in y_index:
            edges.append((x_index[v], y_index[u]))
        else:
            raise GraphError(f"edge ({u!r}, {v!r}) does not cross the bipartition")
    return from_edges(
        len(x_sorted),
        len(y_nodes),
        np.asarray(edges, dtype=INDEX_DTYPE).reshape(-1, 2),
    )


def to_scipy_sparse(graph: BipartiteCSR):
    """Export as a ``scipy.sparse.csr_matrix`` biadjacency (pattern of ones)."""
    import scipy.sparse as sp

    data = np.ones(graph.nnz, dtype=np.int8)
    return sp.csr_matrix(
        (data, graph.x_adj.copy(), graph.x_ptr.copy()), shape=(graph.n_x, graph.n_y)
    )


def to_networkx(graph: BipartiteCSR):
    """Export as a networkx Graph with nodes ``("x", i)`` / ``("y", j)``."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from((("x", i) for i in range(graph.n_x)), bipartite=0)
    g.add_nodes_from((("y", j) for j in range(graph.n_y)), bipartite=1)
    g.add_edges_from((("x", x), ("y", int(y))) for x, y in graph.edges())
    return g
