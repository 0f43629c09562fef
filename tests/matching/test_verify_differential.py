"""Differential test of the vectorised certificate against a per-vertex oracle.

The oracle below is the straightforward version of every check in
:mod:`repro.matching.verify`: a per-pair ``has_edge`` validity loop and a
``deque`` alternating BFS from the free X vertices. Maximum matchings come from
scipy's compiled matcher (independent of this package) and from Hopcroft-Karp;
their cardinalities are cross-checked. Each graph's matchings are then
corrupted in five ways, and the verdict, reach sets, König cover and Hall
witness of both implementations must agree exactly.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from repro.errors import VerificationError
from repro.graph.builder import from_edges
from repro.matching.base import UNMATCHED, Matching
from repro.matching.hopcroft_karp import hopcroft_karp
from repro.matching.verify import (
    alternating_certificate,
    hall_violator,
    is_maximal_matching,
    is_maximum_matching,
    is_valid_matching,
    koenig_vertex_cover,
    verify_maximum,
)

# --------------------------------------------------------------------------- #
# reference oracle
# --------------------------------------------------------------------------- #


def ref_valid(graph, m) -> bool:
    if m.n_x != graph.n_x or m.n_y != graph.n_y:
        return False
    for x in range(m.n_x):
        y = int(m.mate_x[x])
        if y != UNMATCHED and (y < 0 or y >= m.n_y or m.mate_y[y] != x):
            return False
    for y in range(m.n_y):
        x = int(m.mate_y[y])
        if x != UNMATCHED and (x < 0 or x >= m.n_x or m.mate_x[x] != y):
            return False
    return all(graph.has_edge(x, int(m.mate_x[x]))
               for x in range(m.n_x) if m.mate_x[x] != UNMATCHED)


def ref_reach(graph, m):
    reach_x = np.zeros(graph.n_x, dtype=bool)
    reach_y = np.zeros(graph.n_y, dtype=bool)
    queue = deque()
    for x in range(graph.n_x):
        if m.mate_x[x] == UNMATCHED:
            reach_x[x] = True
            queue.append(x)
    found = False
    while queue:
        x = queue.popleft()
        for y in graph.neighbors_x(x):
            y = int(y)
            if reach_y[y]:
                continue
            reach_y[y] = True
            mate = int(m.mate_y[y])
            if mate == UNMATCHED:
                found = True
            elif not reach_x[mate]:
                reach_x[mate] = True
                queue.append(mate)
    return reach_x, reach_y, found


def ref_maximal(graph, m) -> bool:
    return not any(m.mate_y[int(y)] == UNMATCHED
                   for x in range(graph.n_x) if m.mate_x[x] == UNMATCHED
                   for y in graph.neighbors_x(x))


def assert_same_verdicts(graph, m) -> None:
    if not ref_valid(graph, m):
        assert not is_valid_matching(graph, m)
        assert not is_maximum_matching(graph, m)
        for certify in (verify_maximum, koenig_vertex_cover, hall_violator,
                        alternating_certificate):
            with pytest.raises(VerificationError):
                certify(graph, m)
        return
    assert is_valid_matching(graph, m)
    assert is_maximal_matching(graph, m) == ref_maximal(graph, m)
    rx, ry, found = ref_reach(graph, m)
    reach_x, reach_y, got_found = alternating_certificate(graph, m)
    assert np.array_equal(reach_x, rx)
    assert np.array_equal(reach_y, ry)
    assert got_found == found
    assert is_maximum_matching(graph, m) == (not found)
    if found:
        for certify in (verify_maximum, koenig_vertex_cover, hall_violator):
            with pytest.raises(VerificationError):
                certify(graph, m)
        return
    assert verify_maximum(graph, m) == m.cardinality
    cover_x, cover_y = koenig_vertex_cover(graph, m)
    assert np.array_equal(cover_x, np.flatnonzero((m.mate_x != UNMATCHED) & ~rx))
    assert np.array_equal(cover_y, np.flatnonzero(ry))
    assert np.array_equal(hall_violator(graph, m), np.flatnonzero(rx))


# --------------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------------- #


@st.composite
def graphs(draw):
    n_x = draw(st.integers(0, 10))
    n_y = draw(st.integers(0, 10))
    cells = [(x, y) for x in range(n_x) for y in range(n_y)]
    edges = draw(st.lists(st.sampled_from(cells), max_size=40)) if cells else []
    return n_x, n_y, sorted(set(edges))


def scipy_matching(n_x, n_y, edges) -> Matching:
    if not edges:
        return Matching.empty(n_x, n_y)
    rows, cols = zip(*edges)
    biadj = csr_matrix((np.ones(len(edges)), (rows, cols)), shape=(n_x, n_y))
    mate_x = maximum_bipartite_matching(biadj, perm_type="column")
    pairs = [(x, int(y)) for x, y in enumerate(mate_x) if y >= 0]
    return Matching.from_pairs(n_x, n_y, pairs)


def corruptions(m: Matching, rng: np.random.Generator):
    """Dropped pair, asymmetric mate, swapped pairs, out-of-range mate, wrong shape."""
    matched = np.flatnonzero(m.mate_x != UNMATCHED)
    if matched.size:
        x = int(rng.choice(matched))
        dropped = m.copy()
        dropped.unmatch(x)
        yield dropped
        asymmetric = m.copy()
        asymmetric.mate_y[asymmetric.mate_x[x]] = UNMATCHED
        yield asymmetric
    if matched.size >= 2:
        x1, x2 = (int(v) for v in rng.choice(matched, size=2, replace=False))
        swapped = m.copy()
        y1, y2 = int(m.mate_x[x1]), int(m.mate_x[x2])
        swapped.augment_pairs([(x1, y2), (x2, y1)])
        yield swapped
    if m.n_x:
        out_of_range = m.copy()
        out_of_range.mate_x[int(rng.integers(m.n_x))] = int(rng.choice([-2, m.n_y, m.n_y + 3]))
        yield out_of_range
    if m.n_y:
        out_of_range = m.copy()
        out_of_range.mate_y[int(rng.integers(m.n_y))] = m.n_x
        yield out_of_range
    yield Matching.from_pairs(m.n_x + 1, m.n_y, m.pairs())


# --------------------------------------------------------------------------- #
# the test
# --------------------------------------------------------------------------- #


@given(graph=graphs(), seed=st.integers(0, 2**32 - 1))
@example(graph=(0, 0, []), seed=0)
@example(graph=(1, 1, [(0, 0)]), seed=0)
@example(graph=(1, 1, []), seed=0)
@example(graph=(6, 4, []), seed=0)
@settings(max_examples=150, deadline=None)
def test_vectorised_certificate_matches_reference(graph, seed):
    n_x, n_y, edges = graph
    g = from_edges(n_x, n_y, edges)
    rng = np.random.default_rng(seed)
    reference = scipy_matching(n_x, n_y, edges)
    ours = hopcroft_karp(g).matching
    assert ours.cardinality == reference.cardinality
    for m in (reference, ours):
        assert_same_verdicts(g, m)
        for corrupted in corruptions(m, rng):
            assert_same_verdicts(g, corrupted)
    # Arbitrary (mostly non-maximum) valid matchings: greedy prefixes of M.
    pairs = reference.pairs()
    assert_same_verdicts(g, Matching.from_pairs(n_x, n_y, pairs[: len(pairs) // 2]))
