"""Distributed-memory MS-BFS-Graft with 2D (grid) decomposition.

Same algorithm and BSP semantics as :mod:`repro.distributed.engine`, but
edges live on an ``r x c`` rank grid (tile ``(i, j)`` = edges between
X-block ``i`` and Y-block ``j``) and collectives are scoped to grid rows
and columns:

* **top-down** — frontier segments broadcast along grid *rows* (c-1
  copies), tile-local scans, claims reduced along grid *columns* to the Y
  owners;
* **bottom-up / grafting** — active-X bitmaps broadcast along grid rows
  (c-1 copies of one block each, vs p-1 in 1D — the communication-avoiding
  win), tile-local sub-row scans (a tile cannot early-break on another
  tile's hit: the known extra-work trade of 2D), candidates reduced along
  columns;
* **augmentation / statistics** — identical to 1D (walker messages between
  vertex owners; local sweeps).

Hub vertices also parallelise better: a high-degree row's adjacency is
split over ``c`` tiles, so its scan no longer serialises on one rank.

As in the 1D engine, tile-code shared writes go through the
``@superstep_commit`` helpers of :mod:`repro.distributed.commit` (the
analyzer-checked owner-side boundary channel), and the phase loop runs
``GraftOptions.begin_phase`` so deadline/phase_hook/telemetry parity with
the shared-memory engines holds here too.
"""

from __future__ import annotations

import time
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
from repro.distributed.engine import DistributedResult, require_vertex_rule
from repro.distributed.grid import Grid2D
from repro.graph.csr import INDEX_DTYPE, BipartiteCSR
from repro.instrument.counters import Counters
from repro.matching.base import UNMATCHED, Matching, init_matching

_WORD = 8


def distributed_ms_bfs_graft_2d(
    graph: BipartiteCSR,
    initial: Matching | None = None,
    *,
    ranks: int = 4,
    grid: Grid2D | None = None,
    alpha: float = 5.0,
    grafting: bool = True,
    direction_optimizing: bool = True,
    options: Optional[GraftOptions] = None,
) -> DistributedResult:
    """Maximum matching with 2D-decomposed distributed MS-BFS-Graft.

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
    grid = grid or Grid2D.square(graph, ranks)
    ranks = grid.ranks
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
    renewable = np.zeros(n_x, dtype=bool)
    num_unvisited = n_y

    all_x = np.arange(n_x, dtype=np.int64)
    all_y = np.arange(n_y, dtype=np.int64)
    xblock_of = grid.x_block(all_x)
    yblock_of = grid.y_block(all_y)
    owner_of_x = grid.owner_x(all_x)
    owner_of_y = grid.owner_y(all_y)

    def send_bytes(senders: np.ndarray, dests: np.ndarray, words: int) -> np.ndarray:
        """Bytes each rank sends; messages to self are free."""
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

    def resolve_claims(claim_y: np.ndarray, claim_x: np.ndarray):
        """First-writer-wins at Y owners + activations/renewables.

        Returns the next frontier (activated mates). Shared by top-down and
        bottom-up; byte accounting for the claim messages happens at call
        sites (the routing differs).
        """
        nonlocal num_unvisited
        winners, first = np.unique(claim_y, return_index=True)
        win_x = claim_x[first]
        roots = root_x[win_x]
        commit_claims(visited, parent, root_y, winners, win_x, roots)
        num_unvisited -= int(winners.size)
        mates = mate_y[winners]
        matched = mates != UNMATCHED
        activations = mates[matched].astype(INDEX_DTYPE)
        act_roots = roots[matched]
        endpoint_roots = roots[~matched]
        endpoint_y = winners[~matched]
        uniq_roots, first_e = np.unique(endpoint_roots, return_index=True)
        fresh = uniq_roots[~renewable[uniq_roots]]
        fresh_leaf = endpoint_y[first_e][~renewable[uniq_roots]]
        commit_renewable_leaves(leaf, renewable, fresh, fresh_leaf)
        # Activation + renewable-broadcast superstep.
        compute = (
            np.bincount(owner_of_y[winners], minlength=ranks).astype(float)
            if winners.size
            else np.zeros(ranks)
        )
        bytes_out = send_bytes(
            owner_of_y[mate_x[activations]] if activations.size else np.empty(0, dtype=np.int64),
            owner_of_x[activations] if activations.size else np.empty(0, dtype=np.int64),
            2,
        )
        if fresh.size:
            bytes_out += np.bincount(
                owner_of_x[fresh], minlength=ranks
            ).astype(np.float64) * (ranks - 1) * _WORD
        log.record("activate", compute, bytes_out)
        commit_activations(root_x, activations, act_roots)
        return activations

    # ------------------------------------------------------------------ #
    # levels
    # ------------------------------------------------------------------ #

    def topdown_level(frontier: np.ndarray) -> np.ndarray:
        frontier = frontier[active_x_mask()[frontier]] if frontier.size else frontier
        # --- superstep A: frontier segments broadcast along grid rows --- #
        seg_sizes = np.bincount(xblock_of[frontier], minlength=grid.rows) if frontier.size else np.zeros(grid.rows, dtype=np.int64)
        bytes_a = np.zeros(ranks)
        for i in range(grid.rows):
            owner = grid.rank_of(i, i % grid.cols)
            bytes_a[owner] += (grid.cols - 1) * seg_sizes[i] * _WORD
        log.record("topdown-fbcast", np.zeros(ranks), bytes_a)

        # --- superstep B: tile scans + claim reduction along columns ---- #
        src, dst, _ = gather_segments(np.sort(frontier), x_ptr, x_adj)
        counters.edges_traversed += int(dst.size)
        tile_rank = (xblock_of[src] * grid.cols + yblock_of[dst]) if dst.size else np.empty(0, dtype=np.int64)
        compute = np.bincount(tile_rank, minlength=ranks).astype(np.float64)
        # One claim per (tile, y): first unvisited target per y per tile.
        keep = visited[dst] == 0
        src_u, dst_u = src[keep], dst[keep]
        if dst_u.size:
            # Group key (y, x_block); edges are sorted by x (hence x_block),
            # so first occurrence = lowest x in that tile.
            order = np.argsort(dst_u * np.int64(grid.rows) + xblock_of[src_u], kind="stable")
            key = (dst_u * np.int64(grid.rows) + xblock_of[src_u])[order]
            _, first = np.unique(key, return_index=True)
            claim_y = dst_u[order][first]
            claim_x = src_u[order][first]
        else:
            claim_y = np.empty(0, dtype=INDEX_DTYPE)
            claim_x = np.empty(0, dtype=INDEX_DTYPE)
        sender = (xblock_of[claim_x] * grid.cols + yblock_of[claim_y]) if claim_y.size else np.empty(0, dtype=np.int64)
        log.record(
            "topdown-claims", compute, send_bytes(sender, owner_of_y[claim_y], 3)
        )
        # Order concatenation by y then x_block: np.unique in resolve_claims
        # then picks the lowest-block claim, a deterministic owner rule.
        if claim_y.size:
            order = np.argsort(claim_y * np.int64(grid.rows) + xblock_of[claim_x], kind="stable")
            claim_y, claim_x = claim_y[order], claim_x[order]
        counters.edges_traversed += int(claim_y.size)
        return resolve_claims(claim_y, claim_x)

    def bottomup_level(rows_set: np.ndarray, label: str) -> np.ndarray:
        # --- superstep A: X bitmaps broadcast along grid rows ----------- #
        active = active_x_mask()
        bytes_a = np.zeros(ranks)
        for i in range(grid.rows):
            lo, hi = grid.x_range(i)
            owner = grid.rank_of(i, i % grid.cols)
            bytes_a[owner] += (grid.cols - 1) * (hi - lo) / 8.0
        log.record(f"{label}-bitmap", np.full(ranks, n_x / (64.0 * grid.cols)), bytes_a)

        # --- superstep B: tile sub-row scans + candidate reduction ------ #
        src, dst, _ = gather_segments(rows_set, y_ptr, y_adj)  # src=y, dst=x
        counters.edges_traversed += int(dst.size)
        tile_rank = (xblock_of[dst] * grid.cols + yblock_of[src]) if dst.size else np.empty(0, dtype=np.int64)
        compute = np.bincount(tile_rank, minlength=ranks).astype(np.float64)
        hit = active[dst] if dst.size else np.empty(0, dtype=bool)
        src_h, dst_h = src[hit], dst[hit]
        if src_h.size:
            # First active x per (y, x_block): adjacency is x-sorted.
            key = src_h * np.int64(grid.rows) + xblock_of[dst_h]
            order = np.argsort(key, kind="stable")
            _, first = np.unique(key[order], return_index=True)
            cand_y = src_h[order][first]
            cand_x = dst_h[order][first]
            # Reduce along columns to the Y owner, who keeps the
            # lowest-block candidate per y.
            sender = xblock_of[cand_x] * grid.cols + yblock_of[cand_y]
            log.record(
                f"{label}-candidates", compute, send_bytes(sender, owner_of_y[cand_y], 2)
            )
            order2 = np.argsort(cand_y * np.int64(grid.rows) + xblock_of[cand_x], kind="stable")
            cand_y, cand_x = cand_y[order2], cand_x[order2]
        else:
            cand_y = np.empty(0, dtype=INDEX_DTYPE)
            cand_x = np.empty(0, dtype=INDEX_DTYPE)
            log.record(f"{label}-candidates", compute, np.zeros(ranks))
        return resolve_claims(cand_y, cand_x)

    def augment_phase() -> int:
        roots = np.flatnonzero((mate_x == UNMATCHED) & (leaf != UNMATCHED))
        walkers = [int(leaf[r]) for r in roots]
        walker_root = {int(leaf[r]): int(r) for r in roots}
        lengths = {int(r): 0 for r in roots}
        while walkers:
            compute = np.zeros(ranks)
            bytes_out = np.zeros(ranks)
            next_walkers: List[int] = []
            for y in walkers:
                root = walker_root.pop(y)
                x = int(parent[y])
                ry, rx = int(owner_of_y[y]), int(owner_of_x[x])
                compute[ry] += 1
                compute[rx] += 1
                if rx != ry:
                    bytes_out[ry] += 2 * _WORD
                    bytes_out[rx] += 2 * _WORD
                prev = int(mate_x[x])
                commit_match_flip(mate_x, mate_y, x, y)
                lengths[root] += 1
                if prev != UNMATCHED:
                    lengths[root] += 1
                    walker_root[prev] = root
                    next_walkers.append(prev)
                    if int(owner_of_y[prev]) != rx:
                        bytes_out[rx] += _WORD
            log.record("augment-round", compute, bytes_out)
            walkers = next_walkers
        for _, length in lengths.items():
            counters.record_path(length)
        return len(lengths)

    def graft_step() -> np.ndarray:
        nonlocal num_unvisited
        renewable_x_mask = (root_x != UNMATCHED) & renewable[np.where(root_x >= 0, root_x, 0)]
        retire_trees(root_x, np.flatnonzero(renewable_x_mask))
        active_x_count = int(np.count_nonzero(root_x != UNMATCHED))
        safe_y = np.where(root_y >= 0, root_y, 0)
        y_in_tree = root_y != UNMATCHED
        renew_mask = y_in_tree & renewable[safe_y]
        active_y = np.flatnonzero(y_in_tree & ~renew_mask)
        renew_y = np.flatnonzero(renew_mask)
        log.record(
            "statistics",
            np.full(ranks, (n_x + n_y) / ranks),
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
        log.record("rebuild", np.full(ranks, n_y / ranks), np.zeros(ranks))
        return frontier

    # ------------------------------------------------------------------ #
    # driver
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
                rows_set = np.flatnonzero(visited == 0).astype(INDEX_DTYPE)
                frontier = bottomup_level(rows_set, "bottomup")
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
