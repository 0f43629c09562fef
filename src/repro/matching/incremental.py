"""Incremental (dynamic) maximum matching.

Downstream users of BTF/structural-rank pipelines often edit the matrix
pattern a few entries at a time (circuit edits, symbolic factorisation
updates), and the online daemon (:mod:`repro.service.online`) streams
insert/delete batches into resident sessions. Both need the maximum
matching maintained without recomputing it from scratch.

:class:`IncrementalMatcher` holds the edge set as two sorted ``int64``
key arrays, X-major ``x * n_y + y`` and Y-major ``y * n_x + x``, plus the
mate arrays. A batch applies its net edits to both arrays with
``searchsorted`` and ``np.delete``/``np.insert``, derives the CSR from the
keys (:meth:`BipartiteCSR.from_sorted_keys`), and repairs optimality by
running Algorithm 3 (:func:`~repro.core.driver.ms_bfs_graft`) from the
current matching. A repair is just the paper's phase loop warm-started:
deleting matched edges only frees vertices, so the current matching is a
valid initial matching, and the engine's phases of all-free-vertex
alternating BFS stop at the first phase that finds no augmenting path,
which by Berge's theorem certifies the matching maximum. Deveci et al.
(PAPERS.md) repeat all-free-vertex BFS to a fixpoint the same way.

Single-edge :meth:`~IncrementalMatcher.add_edge` and
:meth:`~IncrementalMatcher.remove_edge` are batches of one. The
differential suite in ``tests/matching/test_incremental_batch.py`` and the
state machine in ``tests/matching/test_incremental_state.py`` check every
result against from-scratch recomputation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import MatchingError
from repro.graph.csr import INDEX_DTYPE, BipartiteCSR, edge_keys, transpose_keys
from repro.matching.base import UNMATCHED, Matching

INSERT = "insert"
DELETE = "delete"
_OP_ALIASES = {
    INSERT: INSERT, "+": INSERT, "add": INSERT,
    DELETE: DELETE, "-": DELETE, "remove": DELETE, "del": DELETE,
}


@dataclass(frozen=True)
class BatchRepairStats:
    """What one :meth:`IncrementalMatcher.apply_batch` call did.

    ``bfs_rounds`` counts the repair engine's phases, including the final
    phase that finds no augmenting path and so certifies maximality;
    ``augmented`` is the cardinality the repair gained.
    """

    inserted: int
    deleted: int
    skipped: int
    freed: int
    augmented: int
    bfs_rounds: int
    cardinality: int

    def to_dict(self) -> dict:
        return {
            "inserted": self.inserted, "deleted": self.deleted,
            "skipped": self.skipped, "freed": self.freed,
            "augmented": self.augmented, "bfs_rounds": self.bfs_rounds,
            "cardinality": self.cardinality,
        }


def _member(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Which of ``keys`` occur in ``sorted_keys``."""
    pos = np.searchsorted(sorted_keys, keys)
    hit = pos < sorted_keys.size
    hit[hit] = sorted_keys[pos[hit]] == keys[hit]
    return hit


def _edit_keys(keys: np.ndarray, drop: np.ndarray, add: np.ndarray) -> np.ndarray:
    """Sorted ``keys`` without ``drop`` (all present) and with ``add``
    (all absent); both edits are sorted."""
    if drop.size:
        keys = np.delete(keys, np.searchsorted(keys, drop))
    if add.size:
        keys = np.insert(keys, np.searchsorted(keys, add), add)
    return keys


class IncrementalMatcher:
    """Maximum matching maintained under edge insertions and deletions."""

    def __init__(self, n_x: int, n_y: int) -> None:
        if n_x < 0 or n_y < 0:
            raise MatchingError(f"negative vertex counts: ({n_x}, {n_y})")
        self.n_x = n_x
        self.n_y = n_y
        self._x_keys = np.empty(0, dtype=INDEX_DTYPE)
        self._y_keys = np.empty(0, dtype=INDEX_DTYPE)
        self._graph = BipartiteCSR.from_sorted_keys(n_x, n_y, self._x_keys, self._y_keys)
        self.mate_x = np.full(n_x, UNMATCHED, dtype=INDEX_DTYPE)
        self.mate_y = np.full(n_y, UNMATCHED, dtype=INDEX_DTYPE)
        # The last repair's König cover (Y side), or None once an edit
        # has changed the keys or mates since.
        self._cover_y: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_edges(
        cls, n_x: int, n_y: int, xs: np.ndarray, ys: np.ndarray
    ) -> "IncrementalMatcher":
        """Start from parallel edge arrays (duplicates collapse; matching
        computed from scratch). Out-of-range edges raise
        :class:`~repro.errors.MatchingError`."""
        matcher = cls(n_x, n_y)
        xs = np.asarray(xs, dtype=INDEX_DTYPE)
        ys = np.asarray(ys, dtype=INDEX_DTYPE)
        bad = (xs < 0) | (xs >= n_x) | (ys < 0) | (ys >= n_y)
        if bad.any():
            i = int(np.argmax(bad))
            matcher._check(int(xs[i]), int(ys[i]))
        matcher._x_keys, matcher._y_keys = edge_keys(n_x, n_y, xs, ys)
        matcher.repair()
        return matcher

    @classmethod
    def from_graph(cls, graph: BipartiteCSR) -> "IncrementalMatcher":
        """Start from an existing graph (matching computed from scratch)."""
        return cls.from_edges(graph.n_x, graph.n_y, *graph.edge_arrays())

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    @property
    def cardinality(self) -> int:
        return int(np.count_nonzero(self.mate_x != UNMATCHED))

    @property
    def nnz(self) -> int:
        """Number of edges in the current graph."""
        return int(self._x_keys.size)

    def has_edge(self, x: int, y: int) -> bool:
        self._check(x, y)
        return bool(_member(self._x_keys, np.array([x * self.n_y + y]))[0])

    def matching(self) -> Matching:
        """Snapshot of the current matching, with the last repair's ``cover_y``."""
        snapshot = Matching(self.n_x, self.n_y, self.mate_x.copy(), self.mate_y.copy())
        snapshot.cover_y = self._cover_y
        return snapshot

    def edge_list(self) -> List[Tuple[int, int]]:
        """Canonical edge list of the current graph, sorted by ``(x, y)``.

        Snapshots hash this list into their cache key, so its order is a
        function of the edge set alone, never of the edit history.
        """
        xs, ys = np.divmod(self._x_keys, self.n_y)
        return list(zip(xs.tolist(), ys.tolist()))

    def graph(self) -> BipartiteCSR:
        """The current graph as an immutable, validated CSR.

        Two matchers holding the same edge set return bit-identical CSRs,
        whatever edits built them up.
        """
        self._graph._validate()
        return self._graph

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #

    def add_edge(self, x: int, y: int) -> bool:
        """Insert edge (x, y); returns True if the matching grew."""
        self._check(x, y)
        before = self.cardinality
        return self.apply_batch([(INSERT, x, y)]).cardinality > before

    def remove_edge(self, x: int, y: int) -> bool:
        """Delete edge (x, y); returns True if the matching shrank."""
        self._check(x, y)
        before = self.cardinality
        return self.apply_batch([(DELETE, x, y)]).cardinality < before

    def apply_batch(
        self,
        updates: Iterable[Sequence],
        *,
        deadline: Optional[object] = None,
    ) -> BatchRepairStats:
        """Apply a batch of updates, then repair optimality once.

        ``updates`` is an iterable of ``(op, x, y)`` with ``op`` one of
        ``"insert"``/``"+"``/``"add"`` or ``"delete"``/``"-"``/``"remove"``.
        Updates take effect *in order* (so an insert-then-delete of the
        same edge within one batch nets out to absent, and an insert of a
        present edge or a delete of an absent one is ``skipped``), and
        deleting a matched edge unmatches it (``freed``). The whole batch
        is parsed and range-checked before anything changes. The net edits
        then land in both key arrays, and one warm-started engine run
        restores maximality.

        ``deadline`` is an optional cooperative :class:`~repro.core.options.
        Deadline`; the engine checks it at every phase boundary. On expiry
        the structural updates are already applied and the matching is
        valid but possibly non-maximum: callers retrying after
        :class:`~repro.errors.DeadlineExceeded` should re-repair with an
        empty batch.
        """
        ops: List[Tuple[bool, int, int]] = []
        for entry in updates:
            try:
                op_raw, x, y = entry
            except (TypeError, ValueError):
                raise MatchingError(
                    f"batch update must be (op, x, y), got {entry!r}"
                ) from None
            op = _OP_ALIASES.get(str(op_raw).lower())
            if op is None:
                raise MatchingError(
                    f"unknown batch op {op_raw!r}; use 'insert' or 'delete'"
                )
            x, y = int(x), int(y)
            self._check(x, y)
            ops.append((op == INSERT, x, y))
        inserted = deleted = skipped = freed = 0
        if ops:
            self._cover_y = None
            keys = [x * self.n_y + y for _, x, y in ops]
            found = _member(self._x_keys, np.array(keys, dtype=INDEX_DTYPE))
            before: Dict[int, bool] = dict(zip(keys, found.tolist()))
            present = dict(before)
            for (insert, x, y), key in zip(ops, keys):
                if insert == present[key]:
                    skipped += 1
                    continue
                present[key] = insert
                if insert:
                    inserted += 1
                    continue
                deleted += 1
                if self.mate_x[x] == y:
                    self.mate_x[x] = UNMATCHED
                    self.mate_y[y] = UNMATCHED
                    freed += 1
            net = {k: p for k, p in present.items() if p != before[k]}
            add = np.array(sorted(k for k, p in net.items() if p), dtype=INDEX_DTYPE)
            drop = np.array(sorted(k for k, p in net.items() if not p), dtype=INDEX_DTYPE)
            self._x_keys = _edit_keys(self._x_keys, drop, add)
            self._y_keys = _edit_keys(
                self._y_keys,
                np.sort(transpose_keys(drop, self.n_x, self.n_y)),
                np.sort(transpose_keys(add, self.n_x, self.n_y)),
            )
        augmented, rounds = self._run_repair(deadline)
        return BatchRepairStats(
            inserted=inserted, deleted=deleted, skipped=skipped, freed=freed,
            augmented=augmented, bfs_rounds=rounds,
            cardinality=self.cardinality,
        )

    def repair(self, *, deadline: Optional[object] = None) -> BatchRepairStats:
        """Re-run the repair alone (e.g. after a deadline expiry)."""
        return self.apply_batch((), deadline=deadline)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _check(self, x: int, y: int) -> None:
        if not (0 <= x < self.n_x and 0 <= y < self.n_y):
            raise MatchingError(f"edge ({x}, {y}) out of range")

    def _run_repair(self, deadline: Optional[object]) -> Tuple[int, int]:
        """Rebuild the CSR from the keys and run the engine from the
        current matching; returns ``(augmented, phases)``."""
        from repro.core.driver import ms_bfs_graft

        self._graph = BipartiteCSR.from_sorted_keys(
            self.n_x, self.n_y, self._x_keys, self._y_keys
        )
        before = self.cardinality
        result = ms_bfs_graft(
            self._graph, Matching(self.n_x, self.n_y, self.mate_x, self.mate_y),
            engine="numpy", deadline=deadline,
        )
        self.mate_x = result.matching.mate_x
        self.mate_y = result.matching.mate_y
        self._cover_y = result.matching.cover_y
        return self.cardinality - before, result.counters.phases
