"""Differential test of the vectorised parallel Karp-Sipser initialiser.

``reference_karp_sipser_parallel`` below is the earlier per-vertex
formulation, kept verbatim as an oracle: it recounts every residual degree
after each round and scans degree-1 and proposing rows in Python loops. The
vectorised :func:`repro.matching.karp_sipser_parallel.karp_sipser_parallel`
must return the same ``mate_x``/``mate_y`` and phase count on every case,
and leave a shared generator in the same state.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.graph.builder import from_edges
from repro.graph.csr import INDEX_DTYPE, BipartiteCSR
from repro.graph.generators import (
    chain_graph,
    grid_bipartite,
    random_bipartite,
    rmat_bipartite,
    surplus_core_bipartite,
)
from repro.instrument.counters import Counters
from repro.matching.base import MatchResult, Matching, init_matching
from repro.matching.greedy import greedy_matching
from repro.matching.karp_sipser_parallel import karp_sipser_parallel
from repro.util.rng import SeedLike, as_rng

# --------------------------------------------------------------------------- #
# reference oracle (the per-vertex loop implementation)
# --------------------------------------------------------------------------- #


def reference_karp_sipser_parallel(
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
    """
    start = time.perf_counter()
    rng = as_rng(seed)
    matching = init_matching(graph, initial)
    counters = Counters()
    n_x, n_y = graph.n_x, graph.n_y
    x_ptr, x_adj = graph.x_ptr, graph.x_adj
    y_ptr, y_adj = graph.y_ptr, graph.y_adj
    mate_x = matching.mate_x
    mate_y = matching.mate_y
    edges = 0

    free_x = mate_x == -1
    free_y = mate_y == -1

    def residual_degrees() -> tuple[np.ndarray, np.ndarray]:
        """Degrees counting only free opposite endpoints (full recount).

        The parallel implementation keeps approximate counters; a recount
        per round is equivalent and vectorizes cleanly.
        """
        nonlocal edges
        deg_x = np.zeros(n_x, dtype=np.int64)
        np.add.at(deg_x, _edge_sources_x(), free_y[x_adj].astype(np.int64))
        deg_y = np.zeros(n_y, dtype=np.int64)
        np.add.at(deg_y, _edge_sources_y(), free_x[y_adj].astype(np.int64))
        deg_x[~free_x] = 0
        deg_y[~free_y] = 0
        edges += graph.num_directed_edges
        return deg_x, deg_y

    src_x_cache: list[np.ndarray] = []
    src_y_cache: list[np.ndarray] = []

    def _edge_sources_x() -> np.ndarray:
        if not src_x_cache:
            src_x_cache.append(
                np.repeat(np.arange(n_x, dtype=INDEX_DTYPE), np.diff(x_ptr))
            )
        return src_x_cache[0]

    def _edge_sources_y() -> np.ndarray:
        if not src_y_cache:
            src_y_cache.append(
                np.repeat(np.arange(n_y, dtype=INDEX_DTYPE), np.diff(y_ptr))
            )
        return src_y_cache[0]

    def first_free_neighbor_x(xs: np.ndarray) -> np.ndarray:
        """For each x, a free neighbour (the first) or -1."""
        out = np.full(xs.shape[0], -1, dtype=INDEX_DTYPE)
        for i, x in enumerate(xs):  # rows are degree-1-ish: cheap scans
            row = x_adj[x_ptr[x] : x_ptr[x + 1]]
            hits = row[free_y[row]]
            if hits.size:
                out[i] = hits[0]
        return out

    def first_free_neighbor_y(ys: np.ndarray) -> np.ndarray:
        out = np.full(ys.shape[0], -1, dtype=INDEX_DTYPE)
        for i, y in enumerate(ys):
            row = y_adj[y_ptr[y] : y_ptr[y + 1]]
            hits = row[free_x[row]]
            if hits.size:
                out[i] = hits[0]
        return out

    def resolve(proposers: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """One winner per target, chosen by seeded random priority."""
        if proposers.size == 0:
            return np.empty(0, dtype=np.int64)
        priority = rng.permutation(proposers.shape[0])
        order = np.argsort(targets[priority], kind="stable")
        t_sorted = targets[priority][order]
        keep = np.ones(t_sorted.shape[0], dtype=bool)
        keep[1:] = t_sorted[1:] != t_sorted[:-1]
        return priority[order][keep]

    while True:
        deg_x, deg_y = residual_degrees()
        progressed = False

        # --- degree-1 rounds ------------------------------------------- #
        rounds = 0
        while True:
            if max_degree_one_rounds is not None and rounds >= max_degree_one_rounds:
                break
            ones_x = np.flatnonzero(free_x & (deg_x == 1))
            ones_y = np.flatnonzero(free_y & (deg_y == 1))
            if ones_x.size == 0 and ones_y.size == 0:
                break
            rounds += 1
            tx = first_free_neighbor_x(ones_x)
            ty = first_free_neighbor_y(ones_y)
            edges += int(ones_x.size + ones_y.size)
            # Combine both sides' proposals into (x, y) pairs.
            px = np.concatenate([ones_x[tx != -1], ty[ty != -1]])
            py = np.concatenate([tx[tx != -1], ones_y[ty != -1]])
            if px.size == 0:
                break
            # A vertex may appear as both proposer and target across sides;
            # resolve per-y first, then drop duplicate x's.
            win = resolve(px, py)
            wx, wy = px[win], py[win]
            _, first = np.unique(wx, return_index=True)
            wx, wy = wx[first], wy[first]
            still = free_x[wx] & free_y[wy]
            wx, wy = wx[still], wy[still]
            if wx.size == 0:
                break
            mate_x[wx] = wy
            mate_y[wy] = wx
            free_x[wx] = False
            free_y[wy] = False
            progressed = True
            # Recount degrees after the simultaneous round.
            deg_x, deg_y = residual_degrees()

        # --- one random proposal round --------------------------------- #
        candidates = np.flatnonzero(free_x & (deg_x > 0))
        if candidates.size == 0:
            if not progressed:
                break
            continue
        # Every free x proposes a random free neighbour.
        proposals = np.full(candidates.shape[0], -1, dtype=INDEX_DTYPE)
        for i, x in enumerate(candidates):
            row = x_adj[x_ptr[x] : x_ptr[x + 1]]
            hits = row[free_y[row]]
            edges += int(row.shape[0])
            if hits.size:
                proposals[i] = hits[rng.integers(0, hits.size)]
        valid = proposals != -1
        px, py = candidates[valid], proposals[valid]
        win = resolve(px, py)
        wx, wy = px[win], py[win]
        mate_x[wx] = wy
        mate_y[wy] = wx
        free_x[wx] = False
        free_y[wy] = False
        counters.phases += 1

    counters.edges_traversed = edges
    return MatchResult(
        matching=matching,
        algorithm="karp-sipser-parallel",
        counters=counters,
        wall_seconds=time.perf_counter() - start,
    )


# --------------------------------------------------------------------------- #
# differential catalogue
# --------------------------------------------------------------------------- #

GRAPHS = {
    "rmat-8": rmat_bipartite(8, edge_factor=4, seed=1),
    "rmat-10": rmat_bipartite(10, edge_factor=8, seed=2),
    "er": random_bipartite(300, 280, 900, seed=3),
    "er-sparse": random_bipartite(400, 400, 500, seed=4),
    "surplus-core": surplus_core_bipartite(300, 180, core_degree=4.0, seed=42),
    "grid": grid_bipartite(15, 17),
    "chain": chain_graph(60),
    "isolated": from_edges(9, 12, [(0, 1), (2, 1), (2, 3), (5, 5), (5, 7), (8, 7)]),
    "no-edges": from_edges(5, 4, []),
}
CAPS = [None, 0, 1, 2]


def partial_initial(graph: BipartiteCSR) -> Matching:
    """A greedy matching with every other matched pair removed."""
    full = greedy_matching(graph, shuffle=True, seed=11).matching
    xs = np.flatnonzero(full.mate_x != -1)[::2]
    return Matching.from_pairs(graph.n_x, graph.n_y,
                               [(int(x), int(full.mate_x[x])) for x in xs])


def assert_same(graph, initial, seed, cap):
    new = karp_sipser_parallel(graph, initial, seed=seed, max_degree_one_rounds=cap)
    ref = reference_karp_sipser_parallel(graph, initial, seed=seed,
                                         max_degree_one_rounds=cap)
    np.testing.assert_array_equal(new.matching.mate_x, ref.matching.mate_x)
    np.testing.assert_array_equal(new.matching.mate_y, ref.matching.mate_y)
    assert new.counters.phases == ref.counters.phases


@pytest.mark.parametrize("cap", CAPS, ids=lambda c: f"cap={c}")
@pytest.mark.parametrize("with_initial", [False, True], ids=["empty-init", "partial-init"])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_matches_reference(name, with_initial, cap):
    graph = GRAPHS[name]
    initial = partial_initial(graph) if with_initial else None
    for seed in range(3):
        assert_same(graph, initial, seed, cap)


@pytest.mark.parametrize("cap", CAPS, ids=lambda c: f"cap={c}")
@pytest.mark.parametrize("name", ["rmat-10", "surplus-core", "er-sparse", "no-edges"])
def test_shared_generator_advances_identically(name, cap):
    graph = GRAPHS[name]
    rng_new = np.random.default_rng(5)
    rng_ref = np.random.default_rng(5)
    for _ in range(2):  # the second call starts from the advanced state
        new = karp_sipser_parallel(graph, seed=rng_new, max_degree_one_rounds=cap)
        ref = reference_karp_sipser_parallel(graph, seed=rng_ref, max_degree_one_rounds=cap)
        np.testing.assert_array_equal(new.matching.mate_x, ref.matching.mate_x)
        assert new.counters.phases == ref.counters.phases
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state


def test_does_not_mutate_initial():
    graph = GRAPHS["er"]
    initial = partial_initial(graph)
    before = initial.copy()
    karp_sipser_parallel(graph, initial, seed=0)
    assert initial == before


# --------------------------------------------------------------------------- #
# work counter
# --------------------------------------------------------------------------- #


def test_edge_counter_linear_on_uncapped_path():
    # A 2000-vertex path needs O(n) uncapped degree-1 rounds; the counter
    # must charge the entries read, not a full recount per round.
    graph = chain_graph(1000)
    result = karp_sipser_parallel(graph, seed=0)
    assert result.cardinality == 1000
    assert result.counters.edges_traversed <= 3 * graph.num_directed_edges


def test_edge_counter_on_empty_graph():
    assert karp_sipser_parallel(GRAPHS["no-edges"], seed=0).counters.edges_traversed == 0
