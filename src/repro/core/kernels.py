"""Vectorized (numpy) level kernels for MS-BFS-Graft.

These kernels implement one barrier-delimited parallel region each, with the
*parallel* semantics of the paper's OpenMP implementation: every work item
of a level acts on the level-start state; conflicting ``visited`` claims are
resolved to a single winner (the serialisation real atomics would impose —
we pick the first claimant in frontier order, deterministically); multiple
augmenting-path endpoints in one tree are the paper's benign ``leaf`` race —
a single winner is kept.

Each kernel returns the next frontier plus the statistics the work trace
needs (per-item costs, atomic counts, traversed edges).

Implementation notes on the fast path:

* Claim resolution is a fused O(k) scatter (:func:`first_claim`) instead of
  an O(k log k) sort — the winner for a contested Y vertex is the first
  claimant in frontier order, which is both deterministic and exactly the
  serialisation a first-come-first-served CAS would impose.
* Kernels accept an optional :class:`KernelWorkspace` so the per-level
  scratch arrays are allocated once per run, not once per level.
* Per-level work is proportional to the level, never to the graph: tree
  membership is derived per frontier vertex / per gathered edge instead of
  via the O(n_x) ``active_x_mask`` gather, visited pre-checks gather the
  ``visited`` bytes of the targets, and all visited transitions go through
  ``ForestState.mark_visited``/``clear_visited`` so the incremental
  candidate list and direction counters stay exact.
* Augmentation advances all discovered augmenting paths in lockstep
  (:func:`augment_all`): the paths are vertex-disjoint, so the per-step
  scatter writes never conflict — the same argument that lets the paper
  flip them in parallel.
* A fresh phase's first bottom-up level can be built from the frontier
  side (:func:`bottomup_from_frontier`): the same forest as the row scan,
  reading the frontier's adjacency instead of the unvisited rows'.
* When a :class:`~repro.parallel.shared.BulkAccessObserver` is attached to
  the :class:`~repro.core.forest.ForestState` (``state.observer``), every
  kernel reports its bulk reads/writes of shared arrays, so the dynamic
  race detector (``repro-match racecheck --engine numpy``) sees the fast
  path's memory footprint instead of going blind on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.forest import ForestState
from repro.graph.csr import INDEX_DTYPE, BipartiteCSR
from repro.matching.base import UNMATCHED, Matching
from repro.parallel.shared import READ, WRITE


def _active_tree_mask(state: ForestState, vertices: np.ndarray) -> np.ndarray:
    """Active-tree membership of ``vertices`` in O(len(vertices)).

    Same predicate as ``state.active_x_mask()`` but computed only for the
    queried vertices — the full-mask gather is O(n_x) per call, which used
    to dominate shallow levels on large graphs.
    """
    rx = state.root_x[vertices]
    safe = np.where(rx >= 0, rx, 0)
    return (rx != UNMATCHED) & (state.leaf[safe] == UNMATCHED)


class KernelWorkspace:
    """Reusable per-run scratch buffers for the level kernels.

    ``slot_x`` / ``slot_y`` back the :func:`first_claim` scatter; their
    contents are meaningless between calls (every slot that is read was
    written earlier in the same call), so no per-level clearing is needed.
    ``iota`` is a precomputed ``arange`` sliced instead of re-filled on
    every segment gather. ``want_costs`` lets the engine skip per-item
    cost vectors when no work trace is being emitted.
    """

    __slots__ = ("slot_x", "slot_y", "iota", "want_costs")

    def __init__(self, n_x: int, n_y: int, max_edges: int = 0) -> None:
        self.slot_x = np.empty(n_x, dtype=np.int64)
        self.slot_y = np.empty(n_y, dtype=np.int64)
        self.iota = np.arange(max(n_x, n_y, max_edges), dtype=np.int64)
        self.want_costs = True

    @classmethod
    def for_graph(cls, graph: BipartiteCSR) -> "KernelWorkspace":
        return cls(graph.n_x, graph.n_y, graph.nnz)

    def order(self, k: int) -> np.ndarray:
        """``arange(k)`` as a view of the precomputed buffer (grown on
        demand for callers whose index range exceeds the graph's)."""
        if k > self.iota.shape[0]:
            self.iota = np.arange(max(k, 2 * self.iota.shape[0]), dtype=np.int64)
        return self.iota[:k]


def first_claim(
    targets: np.ndarray, slot: np.ndarray, ws: KernelWorkspace | None = None
) -> np.ndarray:
    """First-writer-wins claim resolution in O(len(targets)).

    Returns a boolean mask selecting, for every distinct value in
    ``targets``, its *first* occurrence — the claimant that would win a
    first-come-first-served CAS. ``slot`` is an int64 scratch array
    indexable by every target value; only the slots touched here are read,
    so it never needs clearing.
    """
    k = targets.shape[0]
    order = ws.order(k) if ws is not None else np.arange(k, dtype=np.int64)
    # Reversed scatter: the last write per slot is the *first* occurrence.
    slot[targets[::-1]] = order[::-1]
    return slot[targets] == order


@dataclass
class LevelStats:
    """What one kernel invocation did (work-trace + counter input)."""

    next_frontier: np.ndarray
    item_costs: np.ndarray
    edges: int
    claims: int
    """Successful visited-flag claims (atomic CAS wins)."""
    attempts: int
    """Total claim attempts (wins + losses); losses model CAS contention."""
    endpoints: int
    """Unmatched Y vertices reached (augmenting paths discovered)."""


_NO_COSTS = np.empty(0)
"""Shared placeholder when the caller is not emitting a work trace."""


def _empty_stats() -> LevelStats:
    return LevelStats(
        next_frontier=np.empty(0, dtype=INDEX_DTYPE),
        item_costs=np.empty(0),
        edges=0,
        claims=0,
        attempts=0,
        endpoints=0,
    )


def _segment_slots(
    base: np.ndarray, deg: np.ndarray, ws: KernelWorkspace | None
) -> tuple[np.ndarray, np.ndarray, int]:
    """Flatten per-row slices ``[base[r], base[r]+deg[r])`` into one index
    vector. Returns ``(slot, offsets, total)``."""
    offsets = np.empty(deg.shape[0] + 1, dtype=np.int64)
    offsets[0] = 0
    np.cumsum(deg, out=offsets[1:])
    total = int(offsets[-1])
    if total == 0:
        return np.empty(0, dtype=np.int64), offsets, 0
    # Flat position k belongs to row r with offsets[r] <= k < offsets[r+1]
    # and maps to base[r] + (k - offsets[r]): a per-row constant shift of k,
    # so one repeat plus a precomputed arange covers the whole gather.
    iota = ws.order(total) if ws is not None else np.arange(total, dtype=np.int64)
    slot = iota + np.repeat(base - offsets[:-1], deg)
    return slot, offsets, total


def _gather_segments(
    ptr: np.ndarray,
    adj: np.ndarray,
    rows: np.ndarray,
    need_sources: bool = True,
    ws: KernelWorkspace | None = None,
):
    """Concatenate the adjacency slices of ``rows``.

    Returns ``(sources, targets, offsets)`` where ``sources[k]`` is the row
    owning edge slot ``k``, ``targets[k]`` its neighbour, and ``offsets``
    the per-row segment boundaries (len(rows)+1). ``sources`` is ``None``
    when ``need_sources`` is false — bottom-up only needs it for the race
    observer, and the extra O(edges) ``repeat`` is measurable.
    """
    deg = ptr[rows + 1] - ptr[rows]
    slot, offsets, total = _segment_slots(ptr[rows], deg, ws)
    if total == 0:
        empty = np.empty(0, dtype=INDEX_DTYPE)
        return (empty if need_sources else None), empty, offsets
    sources = np.repeat(rows, deg) if need_sources else None
    return sources, adj[slot], offsets


def topdown_level(
    graph: BipartiteCSR,
    state: ForestState,
    matching: Matching,
    frontier: np.ndarray,
    workspace: KernelWorkspace | None = None,
    region: str = "topdown",
) -> LevelStats:
    """Algorithm 4 over ``frontier`` (a top-down level or a top-down graft),
    parallel semantics.

    Every active-tree frontier vertex scans its full adjacency (as the
    concurrent version does — no serial early-break); unvisited targets are
    claimed first-writer-wins.
    """
    ws = workspace if workspace is not None else KernelWorkspace.for_graph(graph)
    obs = state.observer
    frontier = np.asarray(frontier, dtype=INDEX_DTYPE)
    if frontier.size:
        frontier = frontier[_active_tree_mask(state, frontier)]
    if frontier.size == 0:
        return _empty_stats()
    if obs is not None:
        obs.begin_region(region)
    winners, claim_src, item_costs, edges, attempts = _claim_search(
        graph, state, frontier, ws
    )
    return _apply_claims(
        state, matching, winners, claim_src, claim_src, item_costs, edges, attempts, ws
    )


def _claim_search(
    graph: BipartiteCSR,
    state: ForestState,
    frontier: np.ndarray,
    ws: KernelWorkspace,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Algorithm 4's claim search: every frontier vertex reads its full
    adjacency and claims its unvisited targets first-writer-wins.

    Returns ``(winners, claim_src, item_costs, edges, attempts)``, winners
    in the order of their first claimant.
    """
    obs = state.observer
    src, dst, offsets = _gather_segments(graph.x_ptr, graph.x_adj, frontier, ws=ws)
    edges = int(dst.shape[0])
    if ws.want_costs:
        item_costs = np.diff(offsets).astype(np.float64) + 1.0
    else:
        item_costs = _NO_COSTS
    # ``compress`` rather than boolean indexing: the same copy without
    # numpy's general fancy-index path, in about a quarter of the time on
    # 100k entries.
    unvis = state.visited[dst] == 0
    src_u = src.compress(unvis)
    dst_u = dst.compress(unvis)
    attempts = int(dst_u.shape[0])
    if attempts:
        # First occurrence per target = the winning atomic claim.
        win = first_claim(dst_u, ws.slot_y, ws)
        winners = dst_u.compress(win)
        claim_src = src_u.compress(win)
        if obs is not None:
            # CAS on visited: winners write atomically, losers observe the
            # set flag (the failing read half of the CAS).
            obs.record_bulk("visited", winners, WRITE, True, claim_src)
            obs.record_bulk("visited", dst_u[~win], READ, True, src_u[~win])
    else:
        winners = np.empty(0, dtype=INDEX_DTYPE)
        claim_src = np.empty(0, dtype=INDEX_DTYPE)
    return winners, claim_src, item_costs, edges, attempts


def bottomup_from_frontier(
    graph: BipartiteCSR,
    state: ForestState,
    matching: Matching,
    frontier: np.ndarray,
    workspace: KernelWorkspace | None = None,
) -> LevelStats:
    """:func:`bottomup_level` over ``state.unvisited_candidates()``, built
    from the frontier side.

    Only valid at a fresh phase's first level, where ``frontier`` is the
    ascending seed list and the whole active set. A row's first active
    neighbour in its ascending adjacency is then its smallest frontier
    neighbour, which is exactly the first claimant of a top-down claim
    search over the ascending frontier. Reordering those winners into
    candidate order makes every forest array, tree list, candidate list
    and the next frontier's order identical to the row scan's, while
    reading only the frontier's adjacency. ``edges`` counts those reads.
    """
    ws = workspace if workspace is not None else KernelWorkspace.for_graph(graph)
    obs = state.observer
    rows = state.unvisited_candidates()
    if rows.size == 0:
        return _empty_stats()
    if obs is not None:
        obs.begin_region("bottomup")
    frontier = np.asarray(frontier, dtype=INDEX_DTYPE)
    winners, claim_src, item_costs, edges, attempts = _claim_search(
        graph, state, frontier, ws
    )
    if winners.size:
        # The row scan emits its winners in candidate order.
        position = ws.slot_y
        position[rows] = ws.order(rows.shape[0])
        order = np.argsort(position[winners])
        winners = winners[order]
        claim_src = claim_src[order]
    return _apply_claims(
        state, matching, winners, claim_src, claim_src, item_costs, edges, attempts, ws
    )


def bottomup_level(
    graph: BipartiteCSR,
    state: ForestState,
    matching: Matching,
    rows: np.ndarray,
    workspace: KernelWorkspace | None = None,
    region: str = "bottomup",
) -> LevelStats:
    """Algorithm 6 over row set ``rows`` (regular bottom-up or grafting).

    Each row scans its neighbours up to (and including) its first
    active-tree neighbour, based on the level-start active state. No atomics
    are needed: each row is owned by a single thread (Section III-B).
    """
    ws = workspace if workspace is not None else KernelWorkspace.for_graph(graph)
    obs = state.observer
    rows = np.asarray(rows, dtype=INDEX_DTYPE)
    if rows.size == 0:
        return _empty_stats()
    if obs is not None:
        obs.begin_region(region)
    ptr, adj = graph.y_ptr, graph.y_adj
    row_start = ptr[rows]
    deg_all = ptr[rows + 1] - row_start
    total_deg = int(deg_all.sum())
    # Tree membership is frozen at level start (the paper's level-synchronous
    # semantics), so the mask can be built once up front. The full O(n_x)
    # build amortizes over every chunk when the edge volume is large; tiny
    # row sets use the per-vertex predicate instead.
    full_mask = state.active_x_mask() if total_deg >= state.n_x // 2 else None

    # A row stops scanning at its first active neighbour, so gathering every
    # edge up front does ~2.7x the necessary work on the acceptance inputs
    # (docs/performance.md). Instead the scan proceeds in geometrically
    # growing chunks of neighbour positions: rows that hit early — the
    # common case once trees cover the graph — never pay for their tails,
    # while deep rows converge to the single full gather within ~5 rounds.
    n = int(rows.shape[0])
    claim_of = np.full(n, UNMATCHED, dtype=INDEX_DTYPE)
    track = ws.want_costs
    scanned = np.zeros(n, dtype=np.int64) if track else None
    edges = 0
    # Live state is carried compacted — positions into ``rows`` plus each
    # row's next adjacency slot and remaining degree — so a round costs
    # O(live rows + gathered edges) with no full-width passes.
    idx_l = np.flatnonzero(deg_all > 0)
    start_l = row_start[idx_l]
    rem_l = deg_all[idx_l]
    # Regular bottom-up rows sit under tree-covered neighbourhoods and hit
    # on the very first edges, so the schedule starts tiny. Grafting rows
    # were just recycled because their trees died — their neighbourhoods
    # are mostly dead too and the typical row scans a large fraction of its
    # adjacency, so starting at the row set's mean degree resolves most
    # rows in one round instead of paying per-round compaction ~log(deg)
    # times (measured ~2ms on the rmat-14 acceptance input; a single full
    # gather is worse again, hub tails dominate).
    if region == "grafting":
        chunk = max(4, min(512, total_deg // max(n, 1)))
    else:
        chunk = 4
    while idx_l.size:
        take = np.minimum(rem_l, chunk)
        slot, offsets, total = _segment_slots(start_l, take, ws)
        dst = adj[slot]
        if full_mask is not None:
            active_edge = full_mask[dst]
        elif total:
            active_edge = _active_tree_mask(state, dst)
        else:
            active_edge = np.empty(0, dtype=bool)
        if obs is not None and total:
            obs.record_bulk("root_x", dst, READ, False, np.repeat(rows[idx_l], take))
        # First active neighbour per row via the sorted active-edge indices.
        hit_positions = np.flatnonzero(active_edge)
        starts = offsets[:-1]
        if hit_positions.size:
            pos = np.searchsorted(hit_positions, starts)
            safe_pos = np.minimum(pos, hit_positions.shape[0] - 1)
            first_edge = hit_positions[safe_pos]
            has_hit = (pos < hit_positions.shape[0]) & (first_edge < offsets[1:])
            cost = np.where(has_hit, first_edge - starts + 1, take)
            claim_of[idx_l[has_hit]] = dst[first_edge[has_hit]]
        else:
            has_hit = None
            cost = take
        edges += int(cost.sum())
        if track:
            scanned[idx_l] += cost
        keep = rem_l > take if has_hit is None else ~has_hit & (rem_l > take)
        idx_l = idx_l[keep]
        start_l = (start_l + take)[keep]
        rem_l = (rem_l - take)[keep]
        chunk *= 4

    has_hit_all = claim_of != UNMATCHED
    winners = rows[has_hit_all]
    claim_src = claim_of[has_hit_all]
    item_costs = scanned.astype(np.float64) + 1.0 if track else _NO_COSTS
    if obs is not None and winners.size:
        # Owned-row visited store: no atomic needed (Section III-B).
        obs.record_bulk("visited", winners, WRITE, False, winners)
    return _apply_claims(
        state, matching, winners, claim_src, winners, item_costs, edges, 0, ws
    )


def _apply_claims(
    state: ForestState,
    matching: Matching,
    winners: np.ndarray,
    claim_src: np.ndarray,
    claim_threads: np.ndarray,
    item_costs: np.ndarray,
    edges: int,
    attempts: int,
    ws: KernelWorkspace,
) -> LevelStats:
    """Algorithm 5 for a batch of claimed (y := winners, x := claim_src).

    ``claim_threads`` identifies the logical thread that owns each claim
    (the frontier X vertex in top-down, the row itself in bottom-up) for
    the race observer's attribution.
    """
    obs = state.observer
    claims = int(winners.shape[0])
    if claims:
        roots = state.root_x[claim_src]
        state.mark_visited(winners)
        state.parent[winners] = claim_src
        state.root_y[winners] = roots
        if obs is not None:
            obs.record_bulk("parent", winners, WRITE, False, claim_threads)
            obs.record_bulk("root_y", winners, WRITE, False, claim_threads)
        mates = matching.mate_y[winners]
        matched = mates != UNMATCHED
        next_frontier = mates[matched].astype(INDEX_DTYPE, copy=False)
        state.root_x[next_frontier] = roots[matched]
        # Incremental tree membership: winners joined a tree on the Y side,
        # their mates on the X side. graft_partition(tracked=True) partitions
        # exactly these vertices instead of scanning both full sides.
        state.tree_y_parts.append(winners)
        if next_frontier.size:
            state.tree_x_parts.append(next_frontier)
        if obs is not None and next_frontier.size:
            obs.record_bulk("root_x", next_frontier, WRITE, False, claim_threads[matched])
        # Unmatched winners end augmenting paths; one leaf survives per tree
        # (the paper's benign race — we keep the first claimant's endpoint,
        # deterministically).
        endpoint_y = winners[~matched]
        endpoint_roots = roots[~matched]
        if endpoint_y.size:
            win = first_claim(endpoint_roots, ws.slot_x, ws)
            state.leaf[endpoint_roots[win]] = endpoint_y[win]
            endpoints = int(np.count_nonzero(win))
            if obs is not None:
                # Every endpoint attempts the leaf write; concurrent attempts
                # on one root are the paper's benign write-write race.
                obs.record_bulk("leaf", endpoint_roots, WRITE, False, claim_threads[~matched])
        else:
            endpoints = 0
    else:
        next_frontier = np.empty(0, dtype=INDEX_DTYPE)
        endpoints = 0
    return LevelStats(
        next_frontier=next_frontier,
        item_costs=item_costs,
        edges=edges,
        claims=claims,
        attempts=max(attempts, claims),
        endpoints=endpoints,
    )


def augment_all(
    state: ForestState, matching: Matching
) -> tuple[np.ndarray, np.ndarray]:
    """Step 2 of Algorithm 3: flip every discovered augmenting path.

    Returns ``(renewable_roots, path_lengths)`` — both arrays, so callers
    recording thousands of paths per phase stay vectorized end to end.
    Paths are vertex-disjoint
    (one per tree, trees vertex-disjoint), so all of them advance in
    lockstep: each iteration flips one matched edge on every still-live
    path with conflict-free scatter writes. The per-path pointer chasing is
    inherently sequential, which is why path length drives the parallel
    augment cost.
    """
    mate_x = matching.mate_x
    mate_y = matching.mate_y
    obs = state.observer
    roots = np.flatnonzero((mate_x == UNMATCHED) & (state.leaf != UNMATCHED)).astype(INDEX_DTYPE)
    parent = state.parent
    lengths = np.zeros(roots.shape[0], dtype=np.int64)
    if roots.size and obs is not None:
        obs.begin_region("augment")
    live = np.arange(roots.shape[0])
    y = state.leaf[roots].astype(INDEX_DTYPE, copy=False)
    while live.size:
        x = parent[y]
        prev_mate = mate_x[x]
        mate_x[x] = y
        mate_y[y] = x
        if obs is not None:
            obs.record_bulk("mate_x", x, WRITE, False, roots[live])
            obs.record_bulk("mate_y", y, WRITE, False, roots[live])
        lengths[live] += 1
        cont = prev_mate != UNMATCHED
        live = live[cont]
        lengths[live] += 1
        y = prev_mate[cont].astype(INDEX_DTYPE, copy=False)
    return roots, lengths


@dataclass
class GraftStats:
    """Result of the GRAFT statistics pass (Alg. 7 lines 2-4)."""

    active_x_count: int
    active_y: np.ndarray
    renewable_y: np.ndarray


def _concat_parts(parts: list[np.ndarray]) -> np.ndarray:
    if not parts:
        return np.empty(0, dtype=INDEX_DTYPE)
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts)


def graft_partition(
    state: ForestState, *, recycle: bool = True, tracked: bool = False
) -> GraftStats:
    """Fused GRAFT statistics + renewable-Y recycling (Alg. 7 lines 2-6).

    One pass over each side partitions vertices into active / renewable,
    clears the stale root pointers of renewable X vertices and — when
    ``recycle`` is set — resets the renewable Y rows (visited flag, root)
    so they can be re-claimed, all without re-deriving the ``leaf`` gather
    per query the way the individual mask helpers do.

    With ``tracked`` the partition runs over the state's incremental tree
    membership lists (``tree_x_parts`` / ``tree_y_parts``) instead of both
    full vertex ranges — O(tree vertices) per phase rather than O(n_x+n_y).
    Only valid when every forest update since the last partition went
    through these kernels (the numpy engine's flow); ad-hoc states built by
    tests or the interleaved programs must use the default full scan.
    """
    if tracked:
        tx = _concat_parts(state.tree_x_parts)
        renew_tx = state.leaf[state.root_x[tx]] != UNMATCHED
        state.root_x[tx[renew_tx]] = UNMATCHED
        active_x = tx[~renew_tx]
        ty = _concat_parts(state.tree_y_parts)
        renew_ty = state.leaf[state.root_y[ty]] != UNMATCHED
        active_y = ty[~renew_ty]
        renewable_y = ty[renew_ty]
        state.tree_x_parts = [active_x]
        state.tree_y_parts = [active_y]
        if recycle:
            reset_rows(state, renewable_y)
        return GraftStats(
            active_x_count=int(active_x.shape[0]),
            active_y=active_y,
            renewable_y=renewable_y,
        )
    rooted_x = state.root_x != UNMATCHED
    safe_x = np.where(rooted_x, state.root_x, 0)
    renewable_mask_x = rooted_x & (state.leaf[safe_x] != UNMATCHED)
    state.root_x[renewable_mask_x] = UNMATCHED
    active_x_count = int(np.count_nonzero(rooted_x & ~renewable_mask_x))
    rooted_y = state.root_y != UNMATCHED
    safe_y = np.where(rooted_y, state.root_y, 0)
    renewable_mask_y = rooted_y & (state.leaf[safe_y] != UNMATCHED)
    active_y = np.flatnonzero(rooted_y & ~renewable_mask_y).astype(INDEX_DTYPE)
    renewable_y = np.flatnonzero(renewable_mask_y).astype(INDEX_DTYPE)
    if recycle:
        reset_rows(state, renewable_y)
    return GraftStats(active_x_count=active_x_count, active_y=active_y, renewable_y=renewable_y)


def reset_rows(state: ForestState, rows: np.ndarray) -> None:
    """Clear visited flags and roots of ``rows`` (renewable-Y recycling).

    Routed through :meth:`ForestState.clear_visited`, so recycled rows
    re-enter the incremental candidate list in place — the next bottom-up
    level sees them without any rescan.
    """
    if rows.size:
        state.clear_visited(rows)
        state.root_y[rows] = UNMATCHED


def rebuild_from_unmatched(state: ForestState, matching: Matching) -> np.ndarray:
    """The destroy-and-rebuild branch of Algorithm 7 (lines 10-15).

    The root frontier comes from the state's persistent unmatched-X seed
    list (:meth:`ForestState.refresh_seeds`): O(n_x) on the first call of a
    run, O(remaining seeds) afterwards.
    """
    state.root_x[:] = UNMATCHED
    frontier = state.refresh_seeds(matching)
    state.root_x[frontier] = frontier
    state.leaf[frontier] = UNMATCHED
    # All trees were just destroyed: the seeds are the only tree members.
    state.tree_x_parts = [frontier]
    state.tree_y_parts = []
    return frontier
