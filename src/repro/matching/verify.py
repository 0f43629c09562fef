"""Matching verification: validity, maximality, and maximum certificates.

``verify_maximum`` certifies optimality without trusting any matching
algorithm, from one validity pass (array checks on the mate arrays, and one
``searchsorted`` of the matched pairs over the sorted CSR edge keys) and one
alternating reachability: a level-synchronous frontier sweep from the free X
vertices (:func:`alternating_reach`). By Berge's theorem the matching is
maximum iff the sweep reaches no free Y vertex. The König vertex cover and the
Hall witness come from the same ``(reach_x, reach_y)`` and are checked against
the edge list, not the sweep: the cover must cover every edge, and ``N(S)``
must equal ``reach_y``. Nothing here is shared with the engines it certifies.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import VerificationError
from repro.graph.csr import BipartiteCSR
from repro.matching.base import UNMATCHED, Matching

Edges = Tuple[np.ndarray, np.ndarray]
Reach = Tuple[np.ndarray, np.ndarray, bool]


def _rows(ptr: np.ndarray, adj: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Concatenated CSR rows of ``vertices``."""
    starts = ptr[vertices]
    counts = ptr[vertices + 1] - starts
    shift = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return adj[shift + np.arange(shift.shape[0])]


def alternating_reach(
    ptr: np.ndarray, adj: np.ndarray, mate_src: np.ndarray, mate_dst: np.ndarray
) -> Reach:
    """Alternating reachability from every free source vertex.

    ``ptr``/``adj`` is the source side's CSR. Returns ``(reach_src,
    reach_dst, found)``: the vertices reachable by an alternating path from a
    free source, and whether one reaches a free destination (an augmenting
    path). The sweep always runs to the full closure.
    """
    reach_src = mate_src == UNMATCHED
    reach_dst = np.zeros(mate_dst.shape[0], dtype=bool)
    frontier = np.flatnonzero(reach_src)
    found = False
    while frontier.size:
        dst = _rows(ptr, adj, frontier)
        dst = np.unique(dst[~reach_dst[dst]])
        reach_dst[dst] = True
        mates = mate_dst[dst]
        found = found or bool(np.any(mates == UNMATCHED))
        mates = mates[mates != UNMATCHED]
        frontier = mates[~reach_src[mates]]
        reach_src[frontier] = True
    return reach_src, reach_dst, found


def _invalidity(graph: BipartiteCSR, matching: Matching, edges: Edges) -> Optional[str]:
    """Why ``matching`` is not a matching of ``graph``, or ``None`` if it is."""
    if (matching.n_x, matching.n_y, matching.mate_x.shape, matching.mate_y.shape) != (
        graph.n_x, graph.n_y, (graph.n_x,), (graph.n_y,)
    ):
        return "mate arrays do not fit the graph"
    if not matching.is_consistent():
        return "mate arrays are out of range or not mutual inverses"
    xs = np.flatnonzero(matching.mate_x != UNMATCHED)
    keys = edges[0] * graph.n_y + edges[1]  # strictly increasing in CSR order
    wanted = xs * graph.n_y + matching.mate_x[xs]
    pos = np.searchsorted(keys, wanted)
    if np.any(pos >= keys.shape[0]) or not np.array_equal(keys[pos], wanted):
        return "a matched pair is not a graph edge"
    return None


def _certify(graph: BipartiteCSR, matching: Matching) -> Tuple[Edges, Reach]:
    """The shared pass: ``(edges, reach)`` after one validity check and one sweep."""
    edges = graph.edge_arrays()
    problem = _invalidity(graph, matching, edges)
    if problem is not None:
        raise VerificationError(f"matching is structurally invalid for this graph: {problem}")
    return edges, alternating_reach(graph.x_ptr, graph.x_adj, matching.mate_x, matching.mate_y)


def _koenig_cover(matching: Matching, edges: Edges, reach: Reach) -> Tuple[np.ndarray, np.ndarray]:
    reach_x, reach_y, found = reach
    if found:
        raise VerificationError("König cover requested for a non-maximum matching")
    in_cover_x = (matching.mate_x != UNMATCHED) & ~reach_x
    cover_size = int(np.count_nonzero(in_cover_x)) + int(np.count_nonzero(reach_y))
    if cover_size != matching.cardinality:
        raise VerificationError(
            f"König cover size {cover_size} != matching cardinality {matching.cardinality}"
        )
    # Self-check: every edge must be covered.
    if not bool(np.all(in_cover_x[edges[0]] | reach_y[edges[1]])):
        raise VerificationError("König construction failed to cover all edges")
    return np.flatnonzero(in_cover_x), np.flatnonzero(reach_y)


def _hall_witness(
    graph: BipartiteCSR, matching: Matching, edges: Edges, reach: Reach
) -> np.ndarray:
    reach_x, reach_y, found = reach
    if found:
        raise VerificationError("Hall violator requested for a non-maximum matching")
    # N(S) from the edge list, independently of the sweep.
    neighborhood = np.zeros(graph.n_y, dtype=bool)
    neighborhood[edges[1][reach_x[edges[0]]]] = True
    if not np.array_equal(neighborhood, reach_y):
        raise VerificationError("alternating reachability produced an inconsistent N(S)")
    deficiency = int(np.count_nonzero(reach_x)) - int(np.count_nonzero(neighborhood))
    expected = graph.n_x - matching.cardinality
    if deficiency != expected:
        raise VerificationError(
            f"Hall defect {deficiency} != n_x - |M| = {expected}"
        )
    return np.flatnonzero(reach_x)


def is_valid_matching(graph: BipartiteCSR, matching: Matching) -> bool:
    """Mate arrays are mutually consistent and every pair is a graph edge."""
    return _invalidity(graph, matching, graph.edge_arrays()) is None


def assert_valid_matching(graph: BipartiteCSR, matching: Matching) -> None:
    """Raise :class:`VerificationError` unless the matching is valid."""
    if not is_valid_matching(graph, matching):
        raise VerificationError("matching is structurally invalid for this graph")


def alternating_certificate(graph: BipartiteCSR, matching: Matching) -> Reach:
    """``(reach_x, reach_y, found)`` from the free X vertices of a valid matching.

    Raises :class:`VerificationError` if the matching is invalid.
    """
    return _certify(graph, matching)[1]


def is_maximal_matching(graph: BipartiteCSR, matching: Matching) -> bool:
    """No graph edge has both endpoints free."""
    free_y = matching.mate_y == UNMATCHED
    return not bool(np.any(free_y[_rows(graph.x_ptr, graph.x_adj, matching.unmatched_x())]))


def is_maximum_matching(graph: BipartiteCSR, matching: Matching) -> bool:
    """Valid and admits no augmenting path (Berge's theorem)."""
    if not is_valid_matching(graph, matching):
        return False
    return not alternating_reach(graph.x_ptr, graph.x_adj, matching.mate_x, matching.mate_y)[2]


def koenig_vertex_cover(
    graph: BipartiteCSR, matching: Matching
) -> Tuple[np.ndarray, np.ndarray]:
    """König cover: ``(cover_x, cover_y)`` index arrays.

    For a *maximum* matching, the König construction — matched X vertices
    not reachable by alternating paths from free X vertices, plus reachable
    Y vertices — is a vertex cover of size exactly ``|M|``. Raises
    :class:`VerificationError` if the input matching is invalid or not
    maximum (the construction then fails to cover, which we detect).
    """
    return _koenig_cover(matching, *_certify(graph, matching))


def hall_violator(graph: BipartiteCSR, matching: Matching) -> np.ndarray:
    """A deficiency witness: a set ``S`` of X vertices with
    ``|S| - |N(S)| = n_x - |M|``.

    By the defect form of Hall's theorem, the maximum matching misses
    exactly ``max_S (|S| - |N(S)|)`` X vertices; the set of X vertices
    reachable by alternating paths from free X vertices attains the
    maximum. Returns the (possibly empty) witness set as an index array and
    self-checks the defect identity; raises
    :class:`~repro.errors.VerificationError` for invalid or non-maximum input.
    """
    return _hall_witness(graph, matching, *_certify(graph, matching))


def verify_maximum(graph: BipartiteCSR, matching: Matching) -> int:
    """Full certificate check; returns the certified maximum cardinality.

    Validates the matching, confirms no augmenting path exists, and
    cross-checks with a König cover of equal size and a Hall witness, all
    from one reachability sweep. Raises :class:`VerificationError` on any
    failure.
    """
    edges, reach = _certify(graph, matching)
    if reach[2]:
        raise VerificationError("matching admits an augmenting path (not maximum)")
    _koenig_cover(matching, edges, reach)
    _hall_witness(graph, matching, edges, reach)
    return matching.cardinality
