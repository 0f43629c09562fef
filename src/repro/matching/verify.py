"""Matching verification: validity, maximality, and maximum certificates.

``verify_maximum`` certifies optimality without trusting any matching
algorithm, and without building the edge list. It starts with one validity
pass: array checks on the mate arrays, then one ``np.repeat(mate_x, deg_x) ==
x_adj`` comparison that marks each matched pair found in its own X row.
Maximality then has two paths.

* **Supplied cover.** A matching may carry ``cover_y``, a boolean mask over
  Y (the MS-BFS-Graft engines attach the Y side of their final forest). The
  checker completes it with ``cover_x``, the matched X whose mate is not in
  ``cover_y``. If every cover-Y is matched, each matched edge then has exactly
  one endpoint in ``C = cover_x | cover_y``, so ``|C| = |M|``. If ``C`` also
  covers every edge, no matching is larger than ``|M|`` (König's theorem).
  Rows in ``cover_x`` are covered whole, so only the entries of the other
  rows are looked up in ``cover_y``; one mask over the entries picks them.
* **Sweep.** Without a cover, or when the supplied one fails any check, one
  alternating reachability runs: a level-synchronous frontier sweep from the
  free X vertices (:func:`alternating_reach`). By Berge's theorem the
  matching is maximum iff it reaches no free Y vertex. The König cover of
  the reached sets is then checked against the CSR rows, not the sweep.

What the checks assume of the graph. Its edges are the entries of the X-side
rows ``x_ptr``/``x_adj``; the Y side is not read. ``x_ptr`` must partition
``x_adj`` (checked: it starts at 0, never decreases and ends at ``nnz``), and
every entry must be a Y index in ``[0, n_y)`` (not checked). Rows need *not*
be sorted or free of duplicates: cache hits build the CSR with
``validate=False``, so nothing here rests on either. Validity asks that each
matched X's own row hold its mate at least once; it never counts hits, since
a duplicate entry in one row could then make up for a missing pair in another.
The cover check reads every entry of every row it needs, whatever the order,
so a duplicate entry is only checked twice.

Soundness never rests on where a cover came from: a wrong or stale cover
only costs the sweep. ``koenig_vertex_cover`` and ``hall_violator`` always
sweep; the Hall witness additionally takes its ``N(S)`` from the rows of
``S``. Nothing here is shared with the engines it certifies, and lint rule
REP009 keeps this module free of imports from ``repro.core``,
``repro.parallel`` and ``repro.distributed``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import VerificationError
from repro.graph.csr import BipartiteCSR, sorted_unique
from repro.matching.base import UNMATCHED, Matching

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
        dst = sorted_unique(dst[~reach_dst[dst]])
        reach_dst[dst] = True
        mates = mate_dst[dst]
        found = found or bool(np.any(mates == UNMATCHED))
        mates = mates[mates != UNMATCHED]
        frontier = mates[~reach_src[mates]]
        reach_src[frontier] = True
    return reach_src, reach_dst, found


def _row_lengths(graph: BipartiteCSR) -> Optional[np.ndarray]:
    """Lengths of the X rows, or ``None`` if ``x_ptr`` does not partition ``x_adj``."""
    ptr = graph.x_ptr
    if ptr.shape != (graph.n_x + 1,) or ptr[0] != 0 or ptr[-1] != graph.x_adj.shape[0]:
        return None
    deg = np.diff(ptr)
    return deg if not np.any(deg < 0) else None


def _invalidity(graph: BipartiteCSR, matching: Matching) -> Optional[str]:
    """Why ``matching`` is not a matching of ``graph``, or ``None`` if it is."""
    if (matching.n_x, matching.n_y, matching.mate_x.shape, matching.mate_y.shape) != (
        graph.n_x, graph.n_y, (graph.n_x,), (graph.n_y,)
    ):
        return "mate arrays do not fit the graph"
    if not matching.is_consistent():
        return "mate arrays are out of range or not mutual inverses"
    deg = _row_lengths(graph)
    if deg is None:
        return "x_ptr is not a row pointer over x_adj"
    # An entry "hits" when it equals its own row's mate. A hit y in row x
    # means mate_x[x] == y, so x == mate_y[y] (the mates are consistent):
    # marking y marks the pair (mate_y[y], y) as found in its own row. Every
    # matched y must be marked. Counting hits instead would let a duplicate
    # entry in one row stand in for a missing pair in another.
    hit = graph.x_adj[np.flatnonzero(np.repeat(matching.mate_x, deg) == graph.x_adj)]
    found = np.zeros(graph.n_y, dtype=bool)
    found[hit[hit != UNMATCHED]] = True  # an UNMATCHED entry hits only an unmatched row
    if np.any((matching.mate_y != UNMATCHED) & ~found):
        return "a matched pair is not a graph edge"
    return None


def _assert_valid(graph: BipartiteCSR, matching: Matching) -> None:
    problem = _invalidity(graph, matching)
    if problem is not None:
        raise VerificationError(f"matching is structurally invalid for this graph: {problem}")


def _certify(graph: BipartiteCSR, matching: Matching) -> Reach:
    """The shared pass: one validity check, then one sweep."""
    _assert_valid(graph, matching)
    return alternating_reach(graph.x_ptr, graph.x_adj, matching.mate_x, matching.mate_y)


def _cover_x(graph: BipartiteCSR, matching: Matching, cover_y: object) -> Optional[np.ndarray]:
    """The X side completing the mask ``cover_y`` to a König cover of
    ``matching``, or ``None`` if it does not complete to one.

    ``matching`` must already be valid. The X side is the matched X whose
    mate is not in ``cover_y``. Once every cover-Y is matched, each matched
    edge contributes exactly one endpoint (its Y if that is in ``cover_y``,
    its X otherwise), so the cover has size ``|M|`` by construction; it
    remains to check that it covers every edge. Only the entries of the
    rows outside ``cover_x`` need ``cover_y``, so only they are looked up.
    """
    if not (
        isinstance(cover_y, np.ndarray)
        and cover_y.dtype == np.bool_
        and cover_y.shape == (graph.n_y,)
    ):
        return None
    if np.any(matching.mate_y[cover_y] == UNMATCHED):
        return None
    cover_x = matching.mate_x != UNMATCHED
    cover_x[matching.mate_y[cover_y]] = False
    outside = np.repeat(~cover_x, np.diff(graph.x_ptr))
    return cover_x if np.all(cover_y[graph.x_adj[outside]]) else None


def _koenig_cover(
    graph: BipartiteCSR, matching: Matching, reach: Reach
) -> Tuple[np.ndarray, np.ndarray]:
    _, reach_y, found = reach
    if found:
        raise VerificationError("König cover requested for a non-maximum matching")
    cover_x = _cover_x(graph, matching, reach_y)
    if cover_x is None:
        raise VerificationError("König construction failed to cover all edges")
    return np.flatnonzero(cover_x), np.flatnonzero(reach_y)


def _hall_witness(graph: BipartiteCSR, matching: Matching, reach: Reach) -> np.ndarray:
    reach_x, reach_y, found = reach
    if found:
        raise VerificationError("Hall violator requested for a non-maximum matching")
    # N(S) from the rows of S, independently of the sweep.
    neighborhood = np.zeros(graph.n_y, dtype=bool)
    neighborhood[_rows(graph.x_ptr, graph.x_adj, np.flatnonzero(reach_x))] = True
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
    return _invalidity(graph, matching) is None


def assert_valid_matching(graph: BipartiteCSR, matching: Matching) -> None:
    """Raise :class:`VerificationError` unless the matching is valid."""
    if not is_valid_matching(graph, matching):
        raise VerificationError("matching is structurally invalid for this graph")


def alternating_certificate(graph: BipartiteCSR, matching: Matching) -> Reach:
    """``(reach_x, reach_y, found)`` from the free X vertices of a valid matching.

    Raises :class:`VerificationError` if the matching is invalid.
    """
    return _certify(graph, matching)


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
    return _koenig_cover(graph, matching, _certify(graph, matching))


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
    return _hall_witness(graph, matching, _certify(graph, matching))


def verify_maximum(graph: BipartiteCSR, matching: Matching) -> int:
    """Full certificate check; returns the certified maximum cardinality.

    Validates the matching, then checks a König cover of size ``|M|``:
    the one the matching carries in ``cover_y`` if it holds up, otherwise
    the reached Y of an alternating sweep that must find no augmenting path.
    Raises :class:`VerificationError` on any failure.
    """
    _assert_valid(graph, matching)
    if _cover_x(graph, matching, matching.cover_y) is not None:
        return matching.cardinality
    reach = alternating_reach(graph.x_ptr, graph.x_adj, matching.mate_x, matching.mate_y)
    if reach[2]:
        raise VerificationError("matching admits an augmenting path (not maximum)")
    _koenig_cover(graph, matching, reach)
    return matching.cardinality
