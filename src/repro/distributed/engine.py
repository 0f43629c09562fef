"""Distributed-memory MS-BFS-Graft on a simulated BSP cluster.

Runs the shared phase loop (:func:`repro.core.engine_loop.run_phases`) on
:class:`BSPForest`, the forest and every superstep both decompositions
share; a routing subclass adds the levels. :class:`Forest1D` is the 1D one:

* **top-down level** — 2 supersteps: ranks scan their local frontier rows
  and send *claim* messages ``(y, x, root)`` to Y owners (deduplicated per
  target within a rank, as real aggregating implementations do); owners
  resolve claims first-writer-wins, then send *activation* messages
  ``(mate, root)`` to X owners and broadcast newly renewable roots;
* **bottom-up level / bottom-up graft** — 3 supersteps: allgather of the
  active-X bitmap (exactly how distributed direction-optimizing BFS
  replicates frontier bitmaps), local row scans with attach requests to X
  owners, root responses + activations;
* **augmentation** — walker messages hop along each augmenting path
  (Y owner → X owner → next Y owner), one superstep per round, all paths
  in parallel;
* **statistics / control** — one superstep per phase for the
  active/renewable classification and the allreduced graft decision.

Grafting follows the shared direction rule: a top-down graft is a top-down
level over the active X, a bottom-up graft a bottom-up level.

State arrays are stored globally for speed but are only ever read/written
by their owning rank's step, and every cross-rank flow is an explicit
message applied at a superstep boundary — so the execution order (and any
staleness) is faithful to a real BSP run, and every byte is accounted in
the :class:`~repro.distributed.bsp.SuperstepLog`.

Shared-array writes inside the phase methods go through the
``@superstep_commit`` helpers of :mod:`repro.distributed.commit` — the
owner-side boundary applications the static analyzer (REP004,
:mod:`repro.analysis.phasecheck`) accepts as atomic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.engine_loop import PhaseSteps, run_phases
from repro.core.kernels import _gather_segments
from repro.core.options import GraftOptions
from repro.distributed.bsp import SuperstepLog
from repro.distributed.commit import (
    commit_activations,
    commit_claims,
    commit_match_flip,
    commit_rebuild,
    commit_renewable_leaves,
    release_rows,
    retire_trees,
)
from repro.distributed.partition import Partition1D
from repro.graph.csr import INDEX_DTYPE, BipartiteCSR
from repro.instrument.counters import Counters
from repro.matching.base import UNMATCHED, Matching

WORD = 8  # bytes per message word


@dataclass
class DistributedResult:
    """Matching plus the BSP execution record."""

    matching: Matching
    counters: Counters
    log: SuperstepLog
    ranks: int
    wall_seconds: float = 0.0
    breakdown: Dict[str, float] = field(default_factory=dict)
    """Wall seconds per step span, as in :attr:`MatchResult.breakdown`."""

    @property
    def cardinality(self) -> int:
        return self.matching.cardinality


class BSPForest(PhaseSteps):
    """The forest over the ranks of ``layout`` (:class:`Partition1D` or ``Grid2D``).

    A routing subclass sets ``statistics_compute`` and ``rebuild_compute``
    (per-rank work) and implements ``topdown(frontier, label="topdown")`` and
    ``bottomup_level(rows, label)``, returning ``(frontier, edges)``.
    """

    statistics_compute: np.ndarray
    rebuild_compute: np.ndarray

    def __init__(self, graph: BipartiteCSR, matching: Matching, layout) -> None:
        n_x, n_y = graph.n_x, graph.n_y
        self.graph = graph
        self.ranks = layout.ranks
        self.owner_x = layout.owner_x(np.arange(n_x, dtype=np.int64))
        self.owner_y = layout.owner_y(np.arange(n_y, dtype=np.int64))
        self.mate_x, self.mate_y = matching.mate_x, matching.mate_y
        self.deg_y = graph.deg_y
        self.log = SuperstepLog(ranks=self.ranks)
        self.visited = np.zeros(n_y, dtype=np.uint8)
        self.parent = np.full(n_y, UNMATCHED, dtype=INDEX_DTYPE)
        self.root_y = np.full(n_y, UNMATCHED, dtype=INDEX_DTYPE)
        self.root_x = np.full(n_x, UNMATCHED, dtype=INDEX_DTYPE)
        self.leaf = np.full(n_x, UNMATCHED, dtype=INDEX_DTYPE)
        self.renewable = np.zeros(n_x, dtype=bool)  # replicated "tree is renewable" flag
        self.num_unvisited_y = n_y
        self.unvisited_deg = int(graph.nnz)
        self.frontier = self._seed_roots()

    def _seed_roots(self) -> np.ndarray:
        frontier = np.flatnonzero(self.mate_x == UNMATCHED).astype(INDEX_DTYPE)
        commit_rebuild(self.root_x, self.leaf, self.renewable, frontier)
        return frontier

    def per_rank(self, owners: np.ndarray, weights=None) -> np.ndarray:
        """Count (or sum ``weights``) per rank over ``owners``, one rank per item."""
        return np.bincount(owners, weights=weights, minlength=self.ranks)

    def send_bytes(self, senders: np.ndarray, dests: np.ndarray, words: int) -> np.ndarray:
        """Bytes each rank sends: ``words`` per message, local messages free."""
        return self.per_rank(senders[senders != dests]) * float(words * WORD)

    def active_x_mask(self) -> np.ndarray:
        safe = np.where(self.root_x >= 0, self.root_x, 0)
        return (self.root_x != UNMATCHED) & ~self.renewable[safe]

    def _claim(self, claim_y: np.ndarray, claim_x: np.ndarray):
        """Owners resolve claims first-writer-wins and activate the mates.

        The first claim per y in ``claim_y`` order (the inbox order the
        routing fixes) wins. Returns the winning ``(y, x)`` pairs, the
        activated mates (the next frontier) and the bytes of the activation
        superstep, which the caller records: the routing decides its ranks.
        """
        winners, first = np.unique(claim_y, return_index=True)
        win_x = claim_x[first]
        roots = self.root_x[win_x]
        commit_claims(self.visited, self.parent, self.root_y, winners, win_x, roots)
        self.num_unvisited_y -= int(winners.size)
        self.unvisited_deg -= int(self.deg_y[winners].sum())
        mates = self.mate_y[winners]
        matched = mates != UNMATCHED
        activations = mates[matched].astype(INDEX_DTYPE)
        # An unmatched winner ends an augmenting path: its tree turns renewable.
        endpoint_y = winners[~matched]
        uniq_roots, first = np.unique(roots[~matched], return_index=True)
        fresh = ~self.renewable[uniq_roots]
        commit_renewable_leaves(
            self.leaf, self.renewable, uniq_roots[fresh], endpoint_y[first][fresh]
        )
        commit_activations(self.root_x, activations, roots[matched])
        # Activations: y-owner forwards (mate, root) to the mate's owner.
        bytes_out = self.send_bytes(self.owner_y[winners[matched]], self.owner_x[activations], 2)
        # Renewable roots broadcast to all ranks: 1 word to each other rank.
        bytes_out += self.per_rank(self.owner_x[uniq_roots[fresh]]) * (self.ranks - 1) * WORD
        return winners, win_x, activations, bytes_out

    def _claim_at_y_owners(self, claim_y, claim_x, label: str):
        """:meth:`_claim`, with the activation superstep run by the Y owners."""
        winners, _, activations, bytes_out = self._claim(claim_y, claim_x)
        self.log.record(label, self.per_rank(self.owner_y[winners]), bytes_out)
        return activations, int(winners.size)

    # ------------------------------------------------------------------ #
    # PhaseSteps
    # ------------------------------------------------------------------ #

    def bottomup(self, frontier: np.ndarray):
        return self.bottomup_level(np.flatnonzero(self.visited == 0), "bottomup")

    def augment(self) -> np.ndarray:
        """Flip every discovered path via walker rounds; returns the lengths.

        Each round, every walker hops Y owner -> X owner, flips, and moves on
        to the X's old mate; paths are disjoint, so the flips are independent.
        """
        roots = np.flatnonzero((self.mate_x == UNMATCHED) & (self.leaf != UNMATCHED))
        walkers, path = self.leaf[roots], np.arange(roots.size)
        lengths = np.zeros(roots.size, dtype=np.int64)
        while walkers.size:
            x = self.parent[walkers]
            prev = self.mate_x[x]
            commit_match_flip(self.mate_x, self.mate_y, x, walkers)
            more = prev != UNMATCHED
            lengths[path] += 1 + more
            ry, rx = self.owner_y[walkers], self.owner_x[x]
            remote = ry != rx
            # Flip request y-owner -> x-owner and the mate-set reply, 2 words each.
            bytes_out = self.per_rank(np.concatenate([ry[remote], rx[remote]])) * 2.0 * WORD
            # The x owner forwards each continuing walker to its next y's owner.
            rx_more = rx[more]
            bytes_out += self.per_rank(rx_more[self.owner_y[prev[more]] != rx_more]) * WORD
            self.log.record("augment-round", self.per_rank(np.concatenate([ry, rx])), bytes_out)
            walkers, path = prev[more], path[more]
        return lengths

    def partition(self):
        """Statistics + control superstep: retire the trees that found a
        path, release their Y, and allreduce the two graft counters."""
        root_x, root_y, renewable = self.root_x, self.root_y, self.renewable
        renewable_x = (root_x != UNMATCHED) & renewable[np.where(root_x >= 0, root_x, 0)]
        retire_trees(self.root_x, np.flatnonzero(renewable_x))
        active_x = int(np.count_nonzero(root_x != UNMATCHED))
        in_tree = root_y != UNMATCHED
        renew_mask = in_tree & renewable[np.where(root_y >= 0, root_y, 0)]
        self.active_y = np.flatnonzero(in_tree & ~renew_mask)
        self.renewable_y = np.flatnonzero(renew_mask)
        self.log.record(
            "statistics",
            self.statistics_compute,
            # Two allreduced counters; a single rank reduces locally.
            np.full(self.ranks, 2.0 * WORD if self.ranks > 1 else 0.0),
        )
        self._release(self.renewable_y)
        return active_x, int(self.renewable_y.size)

    def _release(self, rows: np.ndarray) -> None:
        release_rows(self.visited, self.root_y, rows)
        self.num_unvisited_y += int(rows.size)
        self.unvisited_deg += int(self.deg_y[rows].sum())

    def graft(self, top_down: bool):
        if top_down:
            # After the statistics retired the renewable trees, every live
            # root_x belongs to an active tree.
            active = np.flatnonzero(self.root_x != UNMATCHED)
            frontier, edges = self.topdown(active, "grafting")
        else:
            frontier, edges = self.bottomup_level(self.renewable_y, "grafting")
        return frontier, edges, int(frontier.size)

    def rebuild(self) -> np.ndarray:
        self._release(self.active_y)
        frontier = self._seed_roots()
        self.log.record("rebuild", self.rebuild_compute, np.zeros(self.ranks))
        return frontier

    def cover_y(self) -> np.ndarray:
        return self.visited != 0


class Forest1D(BSPForest):
    """1D routing: each rank owns a block of X rows and a block of Y rows."""

    def __init__(self, graph: BipartiteCSR, matching: Matching, part: Partition1D) -> None:
        super().__init__(graph, matching, part)
        self.statistics_compute = np.diff(part.x_bounds).astype(float) + np.diff(part.y_bounds)
        self.rebuild_compute = np.diff(part.y_bounds).astype(float)
        self.bitmap_compute = np.full(part.ranks, graph.n_x / 64.0)
        self.bitmap_bytes = np.diff(part.x_bounds) / 8.0 * (part.ranks - 1)

    def topdown(self, frontier: np.ndarray, label: str = "topdown"):
        # --- superstep A: local scans, claim messages ------------------- #
        graph, owner_x, owner_y = self.graph, self.owner_x, self.owner_y
        local = frontier[self.active_x_mask()[frontier]]
        src, dst, _ = _gather_segments(graph.x_ptr, graph.x_adj, local)
        compute = self.per_rank(owner_x[src]) + self.per_rank(owner_x[local])
        edges = int(dst.size)
        # Aggregate: one claim per target y from each rank (its first x).
        keep = self.visited[dst] == 0
        src, dst = src[keep], dst[keep]
        # Sorting by (rank, y) concatenates the ranks' claims in rank order,
        # so the owners' first-writer-wins picks the lowest rank's claim.
        _, first = np.unique(owner_x[src] * np.int64(graph.n_y) + dst, return_index=True)
        claim_y, claim_x = dst[first], src[first]
        self.log.record(
            f"{label}-claims", compute, self.send_bytes(owner_x[claim_x], owner_y[claim_y], 3)
        )
        # --- boundary + superstep B: activations + renewable broadcasts - #
        activations, claims = self._claim_at_y_owners(claim_y, claim_x, f"{label}-activate")
        return activations, edges + claims

    def bottomup_level(self, rows: np.ndarray, label: str):
        graph, owner_x, owner_y = self.graph, self.owner_x, self.owner_y
        # --- superstep A: allgather the active-X bitmap ------------------ #
        active = self.active_x_mask()
        self.log.record(f"{label}-bitmap", self.bitmap_compute, self.bitmap_bytes)

        # --- superstep B: local scans up to the first active X ----------- #
        _, dst, offsets = _gather_segments(graph.y_ptr, graph.y_adj, rows, need_sources=False)
        starts, ends = offsets[:-1], offsets[1:]
        hits = np.flatnonzero(active[dst])
        # The first hit at or after each row start; past the last hit, a
        # sentinel no row end reaches.
        first = np.append(hits, offsets[-1])[np.searchsorted(hits, starts)]
        has = first < ends
        scanned = np.where(has, first - starts + 1, ends - starts)
        compute = self.per_rank(owner_y[rows], weights=scanned + 1)
        att_y, att_x = rows[has], dst[first[has]]
        self.log.record(
            f"{label}-attach", compute, self.send_bytes(owner_y[att_y], owner_x[att_x], 2)
        )

        # --- boundary + superstep C: root responses, activations -------- #
        winners, win_x, activations, bytes_out = self._claim(att_y, att_x)
        # Root responses: x-owner -> y-owner.
        bytes_out += self.send_bytes(owner_x[win_x], owner_y[winners], 2)
        self.log.record(f"{label}-respond", self.per_rank(owner_x[win_x]), bytes_out)
        return activations, int(scanned.sum())


def run_bsp(
    engine: str,
    graph: BipartiteCSR,
    initial: Matching | None,
    options: GraftOptions,
    make_forest: Callable[[Matching], BSPForest],
) -> DistributedResult:
    """Run :func:`run_phases` on the forest ``make_forest(matching)`` builds."""
    forests: List[BSPForest] = []

    def setup(matching: Matching, counters: Counters) -> BSPForest:
        forests.append(make_forest(matching))
        return forests[0]

    result = run_phases(engine, graph, initial, options, setup)
    return DistributedResult(
        matching=result.matching,
        counters=result.counters,
        log=forests[0].log,
        ranks=forests[0].ranks,
        wall_seconds=result.wall_seconds,
        breakdown=result.breakdown,
    )


def distributed_ms_bfs_graft(
    graph: BipartiteCSR,
    initial: Matching | None = None,
    *,
    ranks: int = 4,
    alpha: float = 5.0,
    grafting: bool = True,
    direction_optimizing: bool = True,
    options: Optional[GraftOptions] = None,
) -> DistributedResult:
    """Maximum matching with distributed-memory MS-BFS-Graft.

    ``options`` carries the runtime seam shared with the shared-memory
    engines (deadline, phase_hook, telemetry, direction rule) and, when
    given, overrides the ``alpha``/``grafting``/``direction_optimizing``
    keywords.
    """
    if options is None:
        options = GraftOptions(
            alpha=alpha, grafting=grafting, direction_optimizing=direction_optimizing
        )
    part = Partition1D(graph, ranks)
    return run_bsp(
        "bsp-1d", graph, initial, options, lambda matching: Forest1D(graph, matching, part)
    )
