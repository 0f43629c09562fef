"""Pure-Python serial reference engine for MS-BFS-Graft.

Implements Algorithms 3-7 with the paper's *serial* execution order: within
a top-down level, a tree stops growing the instant its augmenting path is
found (the ``break`` in Algorithm 4's serial reading), and bottom-up rows
stop scanning at their first active neighbour. This engine is the
correctness oracle the vectorized and interleaved engines are tested
against; it is also the fairest serial implementation for the Fig. 1-style
edge counts.

The phase loop is :func:`repro.core.engine_loop.run_phases`; this module
supplies its kernels over plain Python lists. The per-edge loops bind
their lists to locals on entry, since an attribute lookup per edge would
shift the interpreted/vectorized dispatch crossover
(:data:`~repro.core.options.DISPATCH_WORK_THRESHOLD`).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.engine_loop import PhaseSteps, run_phases
from repro.core.options import GraftOptions
from repro.graph.csr import BipartiteCSR
from repro.matching._common import adjacency_lists
from repro.matching.base import MatchResult, Matching


def run_python(
    graph: BipartiteCSR, initial: Matching | None, options: GraftOptions
) -> MatchResult:
    """Serial MS-BFS-Graft (Algorithm 3), pure-Python reference."""
    return run_phases(
        "python", graph, initial, options,
        lambda matching, counters: _PythonSteps(graph, matching),
    )


class _PythonSteps(PhaseSteps):
    """Algorithms 4-7 over Python lists; mates are written back at the end."""

    def __init__(self, graph: BipartiteCSR, matching: Matching) -> None:
        self.matching = matching
        self.x_ptr, self.x_adj, self.y_ptr, self.y_adj = adjacency_lists(graph)
        self.n_x, self.n_y = n_x, n_y = graph.n_x, graph.n_y
        self.mate_x = matching.mate_x.tolist()
        self.mate_y = matching.mate_y.tolist()
        self.visited = [0] * n_y
        self.parent = [-1] * n_y
        self.root_x = [-1] * n_x
        self.root_y = [-1] * n_y
        self.leaf = [-1] * n_x
        self.deg_y = [self.y_ptr[y + 1] - self.y_ptr[y] for y in range(n_y)]
        self.num_unvisited_y = n_y
        self.unvisited_deg = sum(self.deg_y)
        self.active_x: List[int] = []
        self.active_y: List[int] = []
        self.renewable_y: List[int] = []
        self.frontier = self._seed_roots()

    def _seed_roots(self) -> List[int]:
        """All unmatched X vertices become tree roots."""
        mate_x, root_x, leaf = self.mate_x, self.root_x, self.leaf
        frontier = [x for x in range(self.n_x) if mate_x[x] == -1]
        for x in frontier:
            root_x[x] = x
            leaf[x] = -1
        return frontier

    def topdown(self, frontier: List[int]):
        """Algorithm 4: expand active-tree frontier vertices."""
        x_ptr, x_adj, visited, parent = self.x_ptr, self.x_adj, self.visited, self.parent
        root_x, root_y, leaf = self.root_x, self.root_y, self.leaf
        mate_y, deg_y = self.mate_y, self.deg_y
        queue: List[int] = []
        edges = claimed = claimed_deg = 0
        for x in frontier:
            rx = root_x[x]
            if rx == -1 or leaf[rx] != -1:
                continue  # x no longer in an active tree
            for i in range(x_ptr[x], x_ptr[x + 1]):
                edges += 1
                y = x_adj[i]
                if visited[y]:
                    continue
                visited[y] = 1
                claimed += 1
                claimed_deg += deg_y[y]
                parent[y] = x
                root_y[y] = rx
                mate = mate_y[y]
                if mate != -1:
                    queue.append(mate)
                    root_x[mate] = rx
                else:
                    leaf[rx] = y  # augmenting path found; tree is renewable
                    break  # serial semantics: stop growing this tree
        self.num_unvisited_y -= claimed
        self.unvisited_deg -= claimed_deg
        return queue, edges

    def bottomup(self, frontier: List[int]):
        visited = self.visited
        return self._attach([y for y in range(self.n_y) if not visited[y]])

    def _attach(self, rows: List[int]):
        """Algorithm 6: attach rows of R to any active tree (first hit)."""
        y_ptr, y_adj, visited, parent = self.y_ptr, self.y_adj, self.visited, self.parent
        root_x, root_y, leaf = self.root_x, self.root_y, self.leaf
        mate_y, deg_y = self.mate_y, self.deg_y
        queue: List[int] = []
        edges = claimed = claimed_deg = 0
        for y in rows:
            for i in range(y_ptr[y], y_ptr[y + 1]):
                edges += 1
                x = y_adj[i]
                rx = root_x[x]
                if rx != -1 and leaf[rx] == -1:
                    visited[y] = 1
                    claimed += 1
                    claimed_deg += deg_y[y]
                    parent[y] = x
                    root_y[y] = rx
                    mate = mate_y[y]
                    if mate != -1:
                        queue.append(mate)
                        root_x[mate] = rx
                    else:
                        leaf[rx] = y
                    break  # stop exploring y's neighbours (Alg. 6 line 7)
        self.num_unvisited_y -= claimed
        self.unvisited_deg -= claimed_deg
        return queue, edges

    def augment(self) -> List[int]:
        mate_x, mate_y, parent, leaf = self.mate_x, self.mate_y, self.parent, self.leaf
        lengths: List[int] = []
        for x0 in range(self.n_x):
            if mate_x[x0] != -1 or leaf[x0] == -1:
                continue
            length = 0
            y = leaf[x0]
            while True:
                x = parent[y]
                prev_mate = mate_x[x]
                mate_x[x] = y
                mate_y[y] = x
                length += 1
                if prev_mate == -1:
                    break
                y = prev_mate
                length += 1
            lengths.append(length)
        if not lengths:
            # The run ends here: hand the final mates to the matching.
            self.matching.mate_x[:] = mate_x
            self.matching.mate_y[:] = mate_y
        return lengths

    def partition(self):
        root_x, root_y, leaf = self.root_x, self.root_y, self.leaf
        self.active_x = active_x = []
        for x in range(self.n_x):
            rx = root_x[x]
            if rx != -1:
                if leaf[rx] == -1:
                    active_x.append(x)
                else:
                    root_x[x] = -1  # renewable X: clear stale root
        self.renewable_y = renewable_y = []
        self.active_y = active_y = []
        for y in range(self.n_y):
            ry = root_y[y]
            if ry != -1:
                if leaf[ry] == -1:
                    active_y.append(y)
                else:
                    renewable_y.append(y)
        return len(active_x), len(renewable_y)

    def _reset_rows(self, rows: List[int]) -> None:
        visited, root_y, deg_y = self.visited, self.root_y, self.deg_y
        for y in rows:
            visited[y] = 0
            root_y[y] = -1
        self.num_unvisited_y += len(rows)
        self.unvisited_deg += sum([deg_y[y] for y in rows])

    def graft(self, top_down: bool):
        self._reset_rows(self.renewable_y)
        if top_down:
            queue, edges = self.topdown(self.active_x)
        else:
            queue, edges = self._attach(self.renewable_y)
        return queue, edges, len(queue)

    def rebuild(self) -> List[int]:
        self._reset_rows(self.renewable_y)
        self._reset_rows(self.active_y)
        self.root_x[:] = [-1] * self.n_x
        return self._seed_roots()

    def cover_y(self) -> np.ndarray:
        return np.array(self.visited, dtype=bool)
