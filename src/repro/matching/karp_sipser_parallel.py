"""Round-based (parallel-semantics) Karp-Sipser initialiser.

The paper initialises its experiments with the *multithreaded* Karp-Sipser
of Azad et al. [4], which differs from the serial heuristic in an important
way: degree-1 vertices are processed in concurrent *rounds* (all current
degree-1 vertices claim their unique neighbour simultaneously; conflicting
claims leave losers unmatched), and the random-edge fallback likewise runs
as simultaneous proposals. The rounds lose some of the serial algorithm's
cascading precision, so the produced matching is slightly smaller — which
is precisely why the paper's maximum-matching phase still has work to do on
every graph class.

This module reproduces those round semantics deterministically (claims are
resolved by a seeded priority), giving the benchmark suite an initial
matching of realistic parallel-KS quality. Every round is a handful of
whole-array passes, in the style of the round-based GPU and external-memory
initialisers:

- the proposals of a round are one CSR gather;
- claims are resolved in O(proposals) with no sort: a first-writer-wins
  scatter over the proposals in seeded priority order
  (:func:`repro.core.kernels.first_claim`), then, in a degree-1 round, a
  ``np.minimum.at`` that keeps each X vertex's smallest won Y;
- after each round every side either pushes the rows of its newly matched
  neighbours into its residual degrees or pulls one recount, whichever is
  cheaper. A push counts every gathered entry (a matched row's degree
  only drops below 0, and no round reads it), a proposal gather
  keeps its free entries with ``ndarray.compress`` rather than boolean
  indexing, and a pull sums in int32, which halves numpy's cast copy.

The serial heuristic lives in :mod:`repro.matching.karp_sipser`.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

import numpy as np

from repro.graph.csr import BipartiteCSR
from repro.instrument.counters import Counters
from repro.matching.base import MatchResult, Matching, init_matching
from repro.util.rng import SeedLike, as_rng

if TYPE_CHECKING:
    from repro.core.kernels import KernelWorkspace

PUSH_PULL_COST_RATIO = 4
"""Time of one pushed adjacency entry over one pulled entry.

A push gathers the rows of the newly matched opposite vertices and
subtracts a ``bincount``: about 17 ns per entry. A pull recounts every row
with one ``np.add.reduceat``: about 4.5 ns per entry plus 21 ns per
non-empty row, i.e. one pushed entry per row. Fitted over RMAT, ER, grid
and chain graphs (see ``docs/performance.md``).
"""


class _Side:
    """One side's CSR rows, free mask and residual degrees: the free
    neighbours of each free row, and at most 0 on matched rows, which no
    round reads (a proposer has degree 1, a candidate more than 0)."""

    __slots__ = ("ptr", "adj", "lengths", "live", "starts", "free", "deg",
                 "pull_cost")

    def __init__(self, ptr: np.ndarray, adj: np.ndarray, lengths: np.ndarray,
                 free: np.ndarray) -> None:
        self.ptr, self.adj, self.lengths, self.free = ptr, adj, lengths, free
        # reduceat needs in-range starts and gives an empty row the entry at
        # its start, so recounts cover the non-empty rows only; an empty
        # row's degree stays 0 throughout.
        self.live = np.flatnonzero(lengths)
        self.starts = ptr[self.live]
        # With no opposite vertex matched, every neighbour is free.
        self.deg = lengths.astype(np.int64)
        # A pull's time in pushed entries.
        self.pull_cost = adj.shape[0] / PUSH_PULL_COST_RATIO + self.live.size

    def recount(self, free_other: np.ndarray) -> int:
        """Pull: recount every row's free neighbours. Returns the entries read."""
        if self.live.size:
            # numpy sums the gathered bools in a full-length copy of the sum
            # dtype; a row's count is at most nnz, so int32 fits below 2**31
            # entries and halves that copy.
            dtype = np.int32 if self.adj.shape[0] < 2**31 else np.int64
            self.deg[self.live] = np.add.reduceat(
                free_other[self.adj], self.starts, dtype=dtype)
        self.deg[~self.free] = 0
        return int(self.adj.shape[0])

    def drop(self, other: "_Side", taken: np.ndarray, ws: KernelWorkspace) -> int:
        """Take the newly matched ``other`` vertices ``taken`` out of the
        degrees: push their rows, or pull a recount when pushing would take
        longer. Returns the entries read."""
        from repro.core.kernels import _gather_segments

        push = int(other.lengths[taken].sum())
        if push > self.pull_cost:
            return self.recount(other.free)
        _, nbrs, _ = _gather_segments(other.ptr, other.adj, taken,
                                      need_sources=False, ws=ws)
        # Every entry counts, matched rows' too: their degrees only drop
        # below 0, and skipping the free filter saves a gather and a copy.
        self.deg -= np.bincount(nbrs, minlength=self.deg.shape[0])
        return push


def karp_sipser_parallel(
    graph: BipartiteCSR,
    initial: Matching | None = None,
    *,
    seed: SeedLike = 0,
    max_degree_one_rounds: int | None = None,
) -> MatchResult:
    """Karp-Sipser with parallel round semantics (vectorized).

    Each iteration:

    1. *degree-1 rounds* — every current degree-1 vertex proposes to its
       unique free neighbour; one proposer per target wins (seeded random
       priority), all winners match simultaneously;
    2. when no degree-1 vertex remains, one *random proposal round* — every
       free X vertex proposes to a uniformly random free neighbour; winners
       match simultaneously;

    until no free vertex has a free neighbour. ``max_degree_one_rounds``
    caps step 1 per iteration (the real implementation's threads interleave
    rule-1 and random matches; a low cap emulates more interleaving and
    yields slightly lower quality).

    Claims are resolved without sorting: each target keeps the first
    proposer in a seeded random priority order (a first-writer-wins
    scatter), and in a degree-1 round each X vertex that won several
    targets keeps the smallest one.

    Residual degrees (free neighbours of each free vertex) start as the
    row lengths when ``initial`` is empty; only a partial ``initial`` needs
    a counting pass. After each round each side takes its newly matched
    neighbours out of its degrees by a *push* (gather their rows, subtract
    a ``bincount``) or a *pull* (recount every row with one
    ``np.add.reduceat``), whichever :data:`PUSH_PULL_COST_RATIO` predicts
    is faster — degree upkeep in the direction-optimising style of the
    paper's top-down/bottom-up choice. The free rows' degrees are exact at
    every round.

    Randomness: each round with proposals draws one
    ``rng.permutation(#proposals)`` for the claim priorities, and each
    random round draws one ``rng.integers(0, deg)`` over the candidates'
    residual degrees before it. The values and the generator's final state
    are those of one scalar ``rng.integers(0, deg[x])`` per candidate in
    row order, so a shared generator advances exactly as the per-vertex
    formulation would advance it.

    ``counters.phases`` is the number of random proposal rounds.
    ``counters.edges_traversed`` counts the adjacency entries read: none
    for the row-length start degrees, both directions for a partial
    ``initial``'s counting pass, the pushed rows, ``nnz`` for each one-side
    pull, and the rows of degree-1 and random proposers. Wall time is
    not bounded by that count: each round still makes O(n) array passes,
    so a path-like graph that needs O(n) uncapped degree-1 rounds costs
    O(n * rounds).
    """
    # The kernels live in repro.core, whose modules import repro.matching:
    # a top-level import here would close that cycle.
    from repro.core.kernels import KernelWorkspace, _gather_segments, first_claim

    start = time.perf_counter()
    rng = as_rng(seed)
    matching = init_matching(graph, initial)
    counters = Counters()
    mate_x = matching.mate_x
    mate_y = matching.mate_y
    ws = KernelWorkspace.for_graph(graph)

    X = _Side(graph.x_ptr, graph.x_adj, graph.deg_x, mate_x == -1)
    Y = _Side(graph.y_ptr, graph.y_adj, graph.deg_y, mate_y == -1)
    free_x, free_y, deg_x, deg_y = X.free, Y.free, X.deg, Y.deg
    edges = 0
    if not free_x.all():
        # Only a partial start matching needs the counting pass.
        edges += X.recount(free_y) + Y.recount(free_x)

    def commit(wx: np.ndarray, wy: np.ndarray) -> None:
        """Match the pairs ``(wx, wy)`` and update the residual degrees."""
        nonlocal edges
        mate_x[wx] = wy
        mate_y[wy] = wx
        free_x[wx] = False
        free_y[wy] = False
        deg_x[wx] = 0
        deg_y[wy] = 0
        edges += X.drop(Y, wy, ws) + Y.drop(X, wx, ws)

    def free_neighbors(side: _Side, other: _Side, rows: np.ndarray) -> np.ndarray:
        """The free neighbours of ``side``'s ``rows``, concatenated in row order."""
        nonlocal edges
        _, nbrs, _ = _gather_segments(side.ptr, side.adj, rows, need_sources=False, ws=ws)
        edges += int(nbrs.shape[0])
        # nbrs.compress(mask), not nbrs[mask]: numpy's boolean indexing took
        # 0.62 ms where compress took 0.17 ms on 104k entries of the ks-rmat
        # graph (the same copy, without the general index machinery).
        return nbrs.compress(other.free[nbrs])

    def resolve(targets: np.ndarray) -> np.ndarray:
        """One winner per target: the first proposer in a seeded random
        priority order. Returns the winners' proposal positions."""
        priority = rng.permutation(targets.shape[0])
        return priority[first_claim(targets[priority], ws.slot_y, ws)]

    while True:
        progressed = False

        # --- degree-1 rounds ------------------------------------------- #
        rounds = 0
        while True:
            if max_degree_one_rounds is not None and rounds >= max_degree_one_rounds:
                break
            ones_x = np.flatnonzero(deg_x == 1)
            ones_y = np.flatnonzero(deg_y == 1)
            if ones_x.size == 0 and ones_y.size == 0:
                break
            rounds += 1
            # Degrees are exact, so each degree-1 row has exactly one free
            # neighbour and the free entries line up with the rows.
            tx = free_neighbors(X, Y, ones_x)
            ty = free_neighbors(Y, X, ones_y)
            # Combine both sides' proposals into (x, y) pairs.
            px = np.concatenate([ones_x, ty])
            py = np.concatenate([tx, ones_y])
            # A vertex may appear as both proposer and target across sides;
            # resolve per-y first, then each x keeps its smallest won y (the
            # first in ascending-y order, as a sort-based resolution keeps).
            win = resolve(py)
            wx, wy = px[win], py[win]
            least = ws.slot_x
            least[wx] = graph.n_y
            np.minimum.at(least, wx, wy)
            keep = least[wx] == wy
            commit(wx[keep], wy[keep])
            progressed = True

        # --- one random proposal round --------------------------------- #
        candidates = np.flatnonzero(deg_x > 0)
        if candidates.size == 0:
            if not progressed:
                break
            continue
        # Every free x proposes a random free neighbour: the k-th free
        # entry of its row, k drawn below its (exact) residual degree.
        cand_deg = deg_x[candidates]
        pick = rng.integers(0, cand_deg)
        pick[1:] += np.cumsum(cand_deg[:-1])
        hits = free_neighbors(X, Y, candidates)
        py = hits[pick]
        win = resolve(py)
        commit(candidates[win], py[win])
        counters.phases += 1

    counters.edges_traversed = edges
    return MatchResult(
        matching=matching,
        algorithm="karp-sipser-parallel",
        counters=counters,
        wall_seconds=time.perf_counter() - start,
    )


def suite_warm_start(graph: BipartiteCSR, seed: SeedLike = 0) -> Matching:
    """Parallel Karp-Sipser capped at two degree-1 rounds per iteration,
    the experiment suite's initial matching.
    :func:`repro.bench.runner.suite_initializer` and the graph cache's warm
    starts both call this, so cached and uncached runs start alike."""
    return karp_sipser_parallel(graph, seed=seed, max_degree_one_rounds=2).matching
