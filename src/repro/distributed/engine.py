"""Distributed-memory MS-BFS-Graft on a simulated BSP cluster.

Executes Algorithm 3 with 1D-partitioned state and explicit messages:

* **top-down level** — 2 supersteps: ranks scan their local frontier rows
  and send *claim* messages ``(y, x, root)`` to Y owners (deduplicated per
  target within a rank, as real aggregating implementations do); owners
  resolve claims first-writer-wins, then send *activation* messages
  ``(mate, root)`` to X owners and broadcast newly renewable roots;
* **bottom-up level / grafting** — 3 supersteps: allgather of the active-X
  bitmap (exactly how distributed direction-optimizing BFS replicates
  frontier bitmaps), local row scans with attach requests to X owners,
  root responses + activations;
* **augmentation** — walker messages hop along each augmenting path
  (Y owner → X owner → next Y owner), one superstep per round, all paths
  in parallel;
* **statistics / control** — one superstep per phase for the
  active/renewable classification and the allreduced graft decision.

State arrays are stored globally for speed but are only ever read/written
by their owning rank's step, and every cross-rank flow is an explicit
message applied at a superstep boundary — so the execution order (and any
staleness) is faithful to a real BSP run, and every byte is accounted in
the :class:`~repro.distributed.bsp.SuperstepLog`.

Shared-array writes inside the phase closures go through the
``@superstep_commit`` helpers of :mod:`repro.distributed.commit` — the
owner-side boundary applications the static analyzer (REP004,
:mod:`repro.analysis.phasecheck`) accepts as atomic; and the phase loop
runs :meth:`repro.core.options.GraftOptions.begin_phase` every phase, so
deadline checks, telemetry phase spans, and ``phase_hook`` behave exactly
as in the shared-memory engines (REP005).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

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
from repro.errors import ReproError
from repro.graph.csr import INDEX_DTYPE, BipartiteCSR
from repro.instrument.counters import Counters
from repro.matching.base import UNMATCHED, Matching, init_matching

_WORD = 8  # bytes per message word


@dataclass
class DistributedResult:
    """Matching plus the BSP execution record."""

    matching: Matching
    counters: Counters
    log: SuperstepLog
    ranks: int
    wall_seconds: float = 0.0

    @property
    def cardinality(self) -> int:
        return self.matching.cardinality


def require_vertex_rule(options: GraftOptions) -> None:
    """Reject the ``edge`` direction rule: the distributed engines only
    implement the ``vertex`` one, and must not silently run it instead."""
    if options.direction_strategy != "vertex":
        raise ReproError(
            f"direction_strategy={options.direction_strategy!r} is not supported "
            f"by the distributed engines; they implement only the 'vertex' rule"
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
    engines (deadline, phase_hook, telemetry) and, when given, overrides
    the ``alpha``/``grafting``/``direction_optimizing`` keywords. Its
    ``direction_strategy`` must be ``"vertex"``; ``"edge"`` raises
    :class:`~repro.errors.ReproError`.
    """
    start = time.perf_counter()
    if options is None:
        options = GraftOptions(
            alpha=alpha, grafting=grafting, direction_optimizing=direction_optimizing
        )
    require_vertex_rule(options)
    alpha = options.alpha
    grafting = options.grafting
    direction_optimizing = options.direction_optimizing
    part = Partition1D(graph, ranks)
    matching = init_matching(graph, initial)
    counters = Counters()
    log = SuperstepLog(ranks=ranks)
    n_x, n_y = graph.n_x, graph.n_y
    x_ptr, x_adj = graph.x_ptr, graph.x_adj
    y_ptr, y_adj = graph.y_ptr, graph.y_adj
    mate_x, mate_y = matching.mate_x, matching.mate_y

    visited = np.zeros(n_y, dtype=np.uint8)
    parent = np.full(n_y, UNMATCHED, dtype=INDEX_DTYPE)
    root_y = np.full(n_y, UNMATCHED, dtype=INDEX_DTYPE)
    root_x = np.full(n_x, UNMATCHED, dtype=INDEX_DTYPE)
    leaf = np.full(n_x, UNMATCHED, dtype=INDEX_DTYPE)
    renewable = np.zeros(n_x, dtype=bool)  # replicated "tree is renewable" flag
    num_unvisited = n_y

    owner_of_x = part.owner_x(np.arange(n_x, dtype=np.int64))
    owner_of_y = part.owner_y(np.arange(n_y, dtype=np.int64))

    def send_bytes(senders: np.ndarray, dests: np.ndarray, words: int) -> np.ndarray:
        """Bytes each rank sends: ``words`` per message, local messages free."""
        if senders.size == 0:
            return np.zeros(ranks)
        remote = senders != dests
        out = np.bincount(senders[remote], minlength=ranks).astype(np.float64)
        return out * words * _WORD

    def gather_segments(rows: np.ndarray, ptr, adj):
        deg = ptr[rows + 1] - ptr[rows]
        total = int(deg.sum())
        offsets = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(deg)])
        if total == 0:
            return (np.empty(0, dtype=INDEX_DTYPE),) * 2 + (offsets,)
        src = np.repeat(rows, deg)
        slot = (
            np.arange(total, dtype=np.int64)
            - np.repeat(offsets[:-1], deg)
            + np.repeat(ptr[rows], deg)
        )
        return src, adj[slot], offsets

    def active_x_mask() -> np.ndarray:
        safe = np.where(root_x >= 0, root_x, 0)
        return (root_x != UNMATCHED) & ~renewable[safe]

    # ------------------------------------------------------------------ #
    # level primitives
    # ------------------------------------------------------------------ #

    def topdown_level(frontier: np.ndarray) -> np.ndarray:
        nonlocal num_unvisited
        # --- superstep A: local scans, claim messages ------------------- #
        compute = np.zeros(ranks)
        claim_y_parts: List[np.ndarray] = []
        claim_x_parts: List[np.ndarray] = []
        for r in range(ranks):
            lo, hi = part.x_range(r)
            local = frontier[(frontier >= lo) & (frontier < hi)]
            if local.size == 0:
                continue
            local = local[active_x_mask()[local]]
            if local.size == 0:
                continue
            src, dst, offsets = gather_segments(local, x_ptr, x_adj)
            compute[r] += dst.size + local.size
            counters.edges_traversed += int(dst.size)
            # Aggregate: one claim per target y from this rank (first x).
            keep = visited[dst] == 0
            src, dst = src[keep], dst[keep]
            uniq, first = np.unique(dst, return_index=True)
            claim_y_parts.append(uniq)
            claim_x_parts.append(src[first])
        if claim_y_parts:
            claim_y = np.concatenate(claim_y_parts)
            claim_x = np.concatenate(claim_x_parts)
        else:
            claim_y = np.empty(0, dtype=INDEX_DTYPE)
            claim_x = np.empty(0, dtype=INDEX_DTYPE)
        log.record(
            "topdown-claims",
            compute,
            send_bytes(owner_of_x[claim_x], owner_of_y[claim_y], 3),
        )

        # --- boundary: owners resolve claims first-writer-wins ---------- #
        # Concatenation order = rank order, so np.unique's first occurrence
        # is the deterministic winner a real owner queue would pick.
        winners, first = np.unique(claim_y, return_index=True)
        win_x = claim_x[first]
        roots = root_x[win_x]
        commit_claims(visited, parent, root_y, winners, win_x, roots)
        num_unvisited -= int(winners.size)
        counters.edges_traversed += int(winners.size)

        # --- superstep B: activations + renewable broadcasts ------------ #
        mates = mate_y[winners]
        matched = mates != UNMATCHED
        activations = mates[matched].astype(INDEX_DTYPE)
        act_roots = roots[matched]
        endpoint_roots = roots[~matched]
        endpoint_y = winners[~matched]
        uniq_roots, first = np.unique(endpoint_roots, return_index=True)
        fresh = uniq_roots[~renewable[uniq_roots]]
        fresh_leaf = endpoint_y[first][~renewable[uniq_roots]]
        commit_renewable_leaves(leaf, renewable, fresh, fresh_leaf)
        compute_b = np.bincount(owner_of_y[winners], minlength=ranks).astype(float) if winners.size else np.zeros(ranks)
        bytes_b = send_bytes(
            owner_of_y[mate_x[activations]] if activations.size else np.empty(0, dtype=np.int64),
            owner_of_x[activations] if activations.size else np.empty(0, dtype=np.int64),
            2,
        )
        # Renewable roots broadcast to all ranks: 1 word to each other rank.
        if fresh.size:
            bytes_b += np.bincount(
                owner_of_x[fresh], minlength=ranks
            ).astype(np.float64) * (ranks - 1) * _WORD
        log.record("topdown-activate", compute_b, bytes_b)
        commit_activations(root_x, activations, act_roots)
        return activations

    def bottomup_level(rows: np.ndarray, label: str) -> np.ndarray:
        nonlocal num_unvisited
        # --- superstep A: allgather the active-X bitmap ------------------ #
        active = active_x_mask()
        block_bytes = np.diff(part.x_bounds) / 8.0
        log.record(f"{label}-bitmap", np.full(ranks, n_x / 64.0), block_bytes * (ranks - 1))

        # --- superstep B: local scans, attach requests ------------------- #
        compute = np.zeros(ranks)
        att_y_parts: List[np.ndarray] = []
        att_x_parts: List[np.ndarray] = []
        for r in range(ranks):
            lo, hi = part.y_range(r)
            local = rows[(rows >= lo) & (rows < hi)]
            if local.size == 0:
                continue
            src, dst, offsets = gather_segments(local, y_ptr, y_adj)
            hit_edge = active[dst] if dst.size else np.empty(0, bool)
            hits = np.flatnonzero(hit_edge)
            starts, ends = offsets[:-1], offsets[1:]
            pos = np.searchsorted(hits, starts)
            safe = np.minimum(pos, max(hits.size - 1, 0))
            has = (pos < hits.size) & (
                (hits[safe] < ends) if hits.size else np.zeros(local.shape, bool)
            )
            first_edge = hits[safe] if hits.size else np.zeros(local.shape, dtype=np.int64)
            scanned = np.where(has, first_edge - starts + 1, ends - starts)
            compute[r] += float(scanned.sum()) + local.size
            counters.edges_traversed += int(scanned.sum())
            att_y_parts.append(local[has])
            att_x_parts.append(dst[first_edge[has]] if local[has].size else np.empty(0, dtype=INDEX_DTYPE))
        att_y = np.concatenate(att_y_parts) if att_y_parts else np.empty(0, dtype=INDEX_DTYPE)
        att_x = np.concatenate(att_x_parts) if att_x_parts else np.empty(0, dtype=INDEX_DTYPE)
        log.record(
            f"{label}-attach",
            compute,
            send_bytes(owner_of_y[att_y], owner_of_x[att_x], 2),
        )

        # --- boundary + superstep C: root responses, activations -------- #
        roots = root_x[att_x]
        commit_claims(visited, parent, root_y, att_y, att_x, roots)
        num_unvisited -= int(att_y.size)
        mates = mate_y[att_y]
        matched = mates != UNMATCHED
        activations = mates[matched].astype(INDEX_DTYPE)
        act_roots = roots[matched]
        endpoint_roots = roots[~matched]
        endpoint_y = att_y[~matched]
        uniq_roots, first = np.unique(endpoint_roots, return_index=True)
        fresh = uniq_roots[~renewable[uniq_roots]]
        fresh_leaf = endpoint_y[first][~renewable[uniq_roots]]
        commit_renewable_leaves(leaf, renewable, fresh, fresh_leaf)
        compute_c = np.bincount(owner_of_x[att_x], minlength=ranks).astype(float) if att_x.size else np.zeros(ranks)
        # Root responses: x-owner -> y-owner.
        bytes_c = send_bytes(owner_of_x[att_x], owner_of_y[att_y], 2)
        if activations.size:
            # Activations: y-owner forwards (mate, root) to the mate's owner.
            bytes_c += send_bytes(
                owner_of_y[att_y[matched]], owner_of_x[activations], 2
            )
        if fresh.size:
            bytes_c += np.bincount(owner_of_x[fresh], minlength=ranks).astype(np.float64) * (
                ranks - 1
            ) * _WORD
        log.record(f"{label}-respond", compute_c, bytes_c)
        commit_activations(root_x, activations, act_roots)
        return activations

    def augment_phase() -> int:
        """Flip every discovered path via walker rounds; returns count."""
        roots = np.flatnonzero((mate_x == UNMATCHED) & (leaf != UNMATCHED))
        # Active walkers: (current y, pending x set later). One per path.
        walkers = [int(leaf[r]) for r in roots]
        lengths = {int(r): 0 for r in roots}
        walker_root = {int(leaf[r]): int(r) for r in roots}
        rounds = 0
        while walkers:
            rounds += 1
            compute = np.zeros(ranks)
            bytes_out = np.zeros(ranks)
            next_walkers: List[int] = []
            for y in walkers:
                root = walker_root.pop(y)
                x = int(parent[y])
                # walker hop y-owner -> x-owner (flip request).
                ry, rx = int(owner_of_y[y]), int(owner_of_x[x])
                compute[ry] += 1
                if rx != ry:
                    bytes_out[ry] += 2 * _WORD
                prev = int(mate_x[x])
                commit_match_flip(mate_x, mate_y, x, y)
                compute[rx] += 1
                if rx != ry:
                    bytes_out[rx] += 2 * _WORD  # mate-set reply to y owner
                lengths[root] += 1
                if prev != UNMATCHED:
                    lengths[root] += 1
                    walker_root[prev] = root
                    next_walkers.append(prev)
                    rp = int(owner_of_y[prev])
                    if rp != rx:
                        bytes_out[rx] += _WORD  # forward walker
            log.record("augment-round", compute, bytes_out)
            walkers = next_walkers
        for r, length in lengths.items():
            counters.record_path(length)
        return len(lengths)

    def graft_step() -> np.ndarray:
        nonlocal num_unvisited
        # Statistics + control superstep: local classification, allreduce.
        renewable_x_mask = (root_x != UNMATCHED) & renewable[np.where(root_x >= 0, root_x, 0)]
        retire_trees(root_x, np.flatnonzero(renewable_x_mask))
        active_x_count = int(np.count_nonzero(root_x != UNMATCHED))
        safe_y = np.where(root_y >= 0, root_y, 0)
        y_in_tree = root_y != UNMATCHED
        renew_y_mask = y_in_tree & renewable[safe_y]
        active_y = np.flatnonzero(y_in_tree & ~renew_y_mask)
        renew_y = np.flatnonzero(renew_y_mask)
        log.record(
            "statistics",
            np.diff(part.x_bounds).astype(float) + np.diff(part.y_bounds),
            # Two allreduced counters; a single rank reduces locally.
            np.full(ranks, 2.0 * _WORD if ranks > 1 else 0.0),
        )
        release_rows(visited, root_y, renew_y)
        num_unvisited += int(renew_y.size)
        if grafting and active_x_count > renew_y.size / alpha:
            new_frontier = bottomup_level(renew_y, "grafting")
            counters.grafts += int(new_frontier.size)
            return new_frontier
        counters.tree_rebuilds += 1
        release_rows(visited, root_y, active_y)
        num_unvisited += int(active_y.size)
        frontier = np.flatnonzero(mate_x == UNMATCHED).astype(INDEX_DTYPE)
        commit_rebuild(root_x, leaf, renewable, frontier)
        log.record("rebuild", np.diff(part.y_bounds).astype(float), np.zeros(ranks))
        return frontier

    # ------------------------------------------------------------------ #
    # driver (Algorithm 3 over BSP levels)
    # ------------------------------------------------------------------ #

    frontier = np.flatnonzero(mate_x == UNMATCHED).astype(INDEX_DTYPE)
    commit_rebuild(root_x, leaf, renewable, frontier)

    while True:
        counters.phases += 1
        options.begin_phase(counters.phases)
        while frontier.size:
            if num_unvisited == 0:
                frontier = frontier[:0]
                break
            counters.bfs_levels += 1
            if (not direction_optimizing) or frontier.size < num_unvisited / alpha:
                counters.topdown_steps += 1
                frontier = topdown_level(frontier)
            else:
                counters.bottomup_steps += 1
                rows = np.flatnonzero(visited == 0).astype(INDEX_DTYPE)
                frontier = bottomup_level(rows, "bottomup")
        if augment_phase() == 0:
            break
        frontier = graft_step()

    return DistributedResult(
        matching=matching,
        counters=counters,
        log=log,
        ranks=ranks,
        wall_seconds=time.perf_counter() - start,
    )
