"""Connected components of bipartite graphs, and per-component matching.

Maximum matching decomposes over connected components; running the matching
per component bounds each search inside its component (smaller working
sets, embarrassing outer parallelism) and is the natural preprocessing for
graphs with many islands — common in the paper's web/wiki class.

:func:`connected_components` labels both sides with a union-find pass;
:func:`match_by_components` runs any registered algorithm per component on
extracted subgraphs and stitches the mate arrays back together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.graph.builder import _from_edge_arrays
from repro.graph.csr import INDEX_DTYPE, BipartiteCSR
from repro.instrument.counters import Counters
from repro.matching.base import MatchResult, Matching


@dataclass(frozen=True)
class ComponentLabels:
    """Component ids per vertex side (ids are dense, 0-based)."""

    num_components: int
    label_x: np.ndarray
    label_y: np.ndarray

    def component_sizes(self) -> np.ndarray:
        """Vertices per component (both sides)."""
        return (
            np.bincount(self.label_x, minlength=self.num_components)
            + np.bincount(self.label_y, minlength=self.num_components)
        )


class _UnionFind:
    """Array union-find with path halving and union by size."""

    def __init__(self, n: int) -> None:
        self.parent = np.arange(n, dtype=np.int64)
        self.size = np.ones(n, dtype=np.int64)

    def find(self, v: int) -> int:
        parent = self.parent
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = int(parent[v])
        return v

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]


def connected_components(graph: BipartiteCSR) -> ComponentLabels:
    """Label connected components. Isolated vertices get their own id."""
    n = graph.n_x + graph.n_y
    uf = _UnionFind(n)
    xs, ys = graph.edge_arrays()
    for x, y in zip(xs.tolist(), ys.tolist()):
        uf.union(x, graph.n_x + y)
    roots = np.array([uf.find(v) for v in range(n)], dtype=np.int64)
    _, dense = np.unique(roots, return_inverse=True)
    return ComponentLabels(
        num_components=int(dense.max()) + 1 if n else 0,
        label_x=dense[: graph.n_x].copy(),
        label_y=dense[graph.n_x :].copy(),
    )


def extract_component(
    graph: BipartiteCSR, labels: ComponentLabels, component: int
) -> tuple[BipartiteCSR, np.ndarray, np.ndarray]:
    """Subgraph of one component plus its (old-id) X and Y vertex arrays."""
    x_ids = np.flatnonzero(labels.label_x == component)
    y_ids = np.flatnonzero(labels.label_y == component)
    x_map = np.full(graph.n_x, -1, dtype=np.int64)
    x_map[x_ids] = np.arange(x_ids.size)
    y_map = np.full(graph.n_y, -1, dtype=np.int64)
    y_map[y_ids] = np.arange(y_ids.size)
    xs, ys = graph.edge_arrays()
    keep = labels.label_x[xs] == component
    sub = _from_edge_arrays(
        int(x_ids.size),
        int(y_ids.size),
        x_map[xs[keep]].astype(INDEX_DTYPE),
        y_map[ys[keep]].astype(INDEX_DTYPE),
        validate=False,
    )
    return sub, x_ids, y_ids


def match_by_components(
    graph: BipartiteCSR,
    algorithm: Optional[Callable[[BipartiteCSR], MatchResult]] = None,
) -> MatchResult:
    """Maximum matching computed component by component.

    ``algorithm`` maps a subgraph to a :class:`MatchResult`; defaults to
    MS-BFS-Graft. Counters are merged across components.
    """
    if algorithm is None:
        from repro.core.driver import ms_bfs_graft as algorithm

    labels = connected_components(graph)
    matching = Matching.empty(graph.n_x, graph.n_y)
    merged: Optional[MatchResult] = None
    for component in range(labels.num_components):
        sub, x_ids, y_ids = extract_component(graph, labels, component)
        if sub.nnz == 0:
            continue
        result = algorithm(sub)
        local = result.matching
        matched_local = np.flatnonzero(local.mate_x != -1)
        matching.mate_x[x_ids[matched_local]] = y_ids[local.mate_x[matched_local]]
        matched_local_y = np.flatnonzero(local.mate_y != -1)
        matching.mate_y[y_ids[matched_local_y]] = x_ids[local.mate_y[matched_local_y]]
        if merged is None:
            merged = result
        else:
            merged.counters.merge(result.counters)
    return MatchResult(
        matching=matching,
        algorithm=(merged.algorithm if merged else "empty") + "+components",
        counters=merged.counters if merged is not None else Counters(),
    )
