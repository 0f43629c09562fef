"""Alternating-forest state for the MS-BFS-Graft algorithm.

Exactly the pointer arrays of the paper's Section III-B:

* ``visited[y]`` — y is part of some current tree (ensures
  vertex-disjointness);
* ``parent[y]`` — the X vertex that discovered y;
* ``root_x[x]`` / ``root_y[y]`` — root (an unmatched X vertex) of the tree
  containing the vertex, -1 if in no tree;
* ``leaf[x]`` — for a tree root x: the unmatched Y leaf of its augmenting
  path, or -1 while the tree is *active*. A tree whose root has
  ``leaf != -1`` is *renewable*. ``leaf`` is a view of the first ``n_x``
  entries of ``leaf_buf``, whose one extra slot ``leaf_buf[n_x]`` holds a
  sentinel other than -1: an unrooted vertex's ``root == -1`` then reads
  that slot, so active-tree membership is the single gather
  ``leaf_buf[root] == -1`` with no guard for ``root == -1``.

Matched X vertices are entered through their mates, so they need no visited
flag or parent pointer (their tree path continues through ``mate``).

On top of the paper's arrays the state maintains the hot-path bookkeeping
that keeps per-level work proportional to *remaining* work instead of graph
size:

* ``candidates_y`` — a phase-persistent superset of the unvisited Y
  vertices with at least one edge, compacted lazily by
  :meth:`unvisited_candidates` so a bottom-up level costs O(candidates),
  never O(n_y);
* ``seeds_x`` — the incrementally-shrunk unmatched-X seed list behind
  ``rebuild_from_unmatched`` (a matching only grows inside one run, so the
  seed list only loses members and never needs a rescan);
* ``unvisited_deg`` — running sum of unvisited-Y degrees, giving the
  "edge" direction strategy its threshold in O(1) instead of an O(n_y)
  masked sum per level.

All visited-flag transitions must go through :meth:`mark_visited` /
:meth:`clear_visited` (bulk) or :meth:`count_visit` (the interleaved
engine's per-element claims) so the candidate list and the
``num_unvisited_y``/``num_candidates``/``unvisited_deg`` counters stay
consistent with ``visited``: the direction rule and the phase's
``num_unvisited_y == 0`` exit read those counters, so a drifted count can
end a phase early.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import INDEX_DTYPE, BipartiteCSR
from repro.matching.base import UNMATCHED, Matching


class ForestState:
    """Mutable forest arrays plus the unvisited-Y bookkeeping for direction
    optimization and incremental candidate tracking.

    ``observer`` optionally holds a
    :class:`~repro.parallel.shared.BulkAccessObserver`; when set, the
    vectorized kernels report their bulk shared-array accesses to it so the
    dynamic race detector can audit the numpy fast path.
    """

    __slots__ = (
        "n_x", "n_y", "visited", "parent", "root_x", "root_y", "leaf_buf",
        "num_unvisited_y", "observer", "candidates_y",
        "num_candidates", "seeds_x", "unvisited_deg", "last_scan_cost",
        "tree_x_parts", "tree_y_parts", "deg_y",
    )

    def __init__(self, n_x: int, n_y: int, deg_y: np.ndarray) -> None:
        """An empty forest over ``n_x`` X and ``n_y`` Y vertices, where Y
        vertex ``y`` has degree ``deg_y[y]``.

        Isolated (degree-0) Y vertices never enter the candidate list: no
        claim can reach them, yet on skewed inputs they are a third of the
        side and every bottom-up level would re-gather them.
        ``num_unvisited_y`` still counts them (the direction heuristic and
        termination check are unchanged).
        """
        self.n_x = n_x
        self.n_y = n_y
        self.visited = np.zeros(n_y, dtype=np.uint8)
        self.parent = np.full(n_y, UNMATCHED, dtype=INDEX_DTYPE)
        self.root_x = np.full(n_x, UNMATCHED, dtype=INDEX_DTYPE)
        self.root_y = np.full(n_y, UNMATCHED, dtype=INDEX_DTYPE)
        self.leaf_buf = np.full(n_x + 1, UNMATCHED, dtype=INDEX_DTYPE)
        self.leaf_buf[n_x] = n_y  # the sentinel: no Y vertex, and not UNMATCHED
        self.num_unvisited_y = n_y
        self.observer = None
        self.deg_y = deg_y
        self.candidates_y = np.flatnonzero(deg_y).astype(INDEX_DTYPE, copy=False)
        self.num_candidates = int(self.candidates_y.shape[0])
        self.seeds_x = None
        self.unvisited_deg = int(deg_y.sum())
        self.last_scan_cost = 0
        # Incremental tree membership for the numpy engine's GRAFT pass:
        # every array of vertices that entered a tree since the last
        # partition (claim winners on the Y side; pulled-in mates and
        # rebuild seeds on the X side). Only meaningful for flows that
        # route all forest updates through the vectorized kernels — see
        # kernels.graft_partition(tracked=True).
        self.tree_x_parts: list[np.ndarray] = []
        self.tree_y_parts: list[np.ndarray] = []

    @classmethod
    def for_graph(cls, graph: BipartiteCSR) -> "ForestState":
        return cls(graph.n_x, graph.n_y, graph.deg_y)

    @property
    def leaf(self) -> np.ndarray:
        """``leaf[x]`` for every X vertex: a view of ``leaf_buf`` without
        its sentinel slot, so writes through it reach the one buffer (and
        survive ``copy.deepcopy``, which copies only the buffer)."""
        return self.leaf_buf[: self.n_x]

    # ------------------------------------------------------------------ #
    # incremental visited / candidate bookkeeping
    # ------------------------------------------------------------------ #

    def mark_visited(self, rows: np.ndarray) -> None:
        """Flag ``rows`` (all currently unvisited) as visited, updating the
        direction-strategy counters.

        Every row was claimed through an edge, so none of them is isolated
        and all of them leave the candidate count.
        """
        n = int(rows.shape[0])
        if n == 0:
            return
        self.visited[rows] = 1
        self.num_unvisited_y -= n
        self.unvisited_deg -= int(self.deg_y[rows].sum())
        self.num_candidates -= n

    def clear_visited(self, rows: np.ndarray) -> None:
        """Un-flag ``rows`` (all currently visited) and put them back in the
        candidate list (graft recycling / destroy-and-rebuild).

        Compaction happens *before* the append: any stale copy of a recycled
        row still in ``candidates_y`` is dropped while its flag is still
        set, so the list never holds duplicates. Every visited row was
        claimed through an edge, so none of them is isolated.
        """
        n = int(rows.shape[0])
        if n == 0:
            return
        self._compact_candidates()
        back = np.asarray(rows, dtype=INDEX_DTYPE)
        self.unvisited_deg += int(self.deg_y[back].sum())
        self.candidates_y = np.concatenate([self.candidates_y, back])
        self.num_candidates += n
        self.visited[rows] = 0
        self.num_unvisited_y += n

    def count_visit(self, y: int) -> None:
        """Per-element counter update for the interleaved engine's claims.

        The simulated item programs set the ``visited`` byte themselves
        (through the observable CAS wrapper); this keeps the direction
        counters in step. Candidate compaction filters against the byte
        array, so the lazy superset invariant holds.
        """
        self.num_unvisited_y -= 1
        d = int(self.deg_y[y])
        self.unvisited_deg -= d
        if d:
            self.num_candidates -= 1

    def _compact_candidates(self) -> None:
        cand = self.candidates_y
        if cand.shape[0] != self.num_candidates:
            # Superset invariant: equal length implies the sets are equal,
            # so the filter only runs when something was claimed since the
            # last compaction.
            self.candidates_y = cand.compress(self.visited[cand] == 0)

    def unvisited_candidates(self) -> np.ndarray:
        """The unvisited Y vertices, in O(candidates) — never O(n_y).

        Compacts the lazy candidate list against the visited flags and
        returns it. ``last_scan_cost`` records the pre-compaction length
        (the work actually done), which the regression tests bound by
        remaining-unvisited + recycled-since instead of ``n_y``.
        """
        self.last_scan_cost = int(self.candidates_y.shape[0])
        self._compact_candidates()
        return self.candidates_y

    def refresh_seeds(self, matching: Matching) -> np.ndarray:
        """Current unmatched X vertices, shrinking the persistent seed list.

        First call scans ``mate_x`` once; later calls filter the previous
        seeds in O(seeds). Sound within one run because augmentation only
        ever matches vertices — a matched X never becomes unmatched again.
        """
        if self.seeds_x is None:
            self.seeds_x = matching.unmatched_x()
        else:
            self.seeds_x = self.seeds_x[
                matching.mate_x[self.seeds_x] == UNMATCHED
            ]
        return self.seeds_x

    # ------------------------------------------------------------------ #
    # set queries (the GRAFT step's "Statistics" pass, Alg. 7 lines 2-4)
    # ------------------------------------------------------------------ #

    def active_x_mask(self) -> np.ndarray:
        """X vertices in an active tree: root set and root's leaf unset.
        An unset root reads the sentinel slot, which is never UNMATCHED."""
        return self.leaf_buf[self.root_x] == UNMATCHED

    def renewable_x_mask(self) -> np.ndarray:
        return (self.root_x != UNMATCHED) & (self.leaf_buf[self.root_x] != UNMATCHED)

    def active_y_mask(self) -> np.ndarray:
        return self.leaf_buf[self.root_y] == UNMATCHED

    def renewable_y_mask(self) -> np.ndarray:
        return (self.root_y != UNMATCHED) & (self.leaf_buf[self.root_y] != UNMATCHED)

    def alternating_path_to_root(self, matching: Matching, y0: int) -> list[int]:
        """The tree path from y0 up to its root, as ``[y0, x1, y1, ..., root]``.

        Follows parent then mate pointers; used by augmentation and tests.
        """
        path = [int(y0)]
        y = int(y0)
        while True:
            x = int(self.parent[y])
            path.append(x)
            nxt = int(matching.mate_x[x])
            if nxt == UNMATCHED:
                return path
            path.append(nxt)
            y = nxt
