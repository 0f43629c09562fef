"""Matching state and algorithm result types.

A matching is stored as two mate arrays, following the paper's Algorithm 3
input convention (``mate[u] = -1`` for unmatched ``u``), split per side so
every array indexes a single vertex space:

* ``mate_x[x]`` — the Y partner of x, or -1;
* ``mate_y[y]`` — the X partner of y, or -1.

A matching may also carry ``cover_y``, a boolean mask over Y that its
producer claims is the Y side of a König vertex cover: the Y vertices
reachable by alternating paths from the free X vertices. The MS-BFS-Graft
engines attach the Y side of their final forest here, and
:func:`~repro.matching.verify.verify_maximum` checks it in one edge pass
instead of re-running that search. Nothing trusts it: a wrong or stale
cover only sends the verifier back to its own sweep. :meth:`Matching.match`,
:meth:`~Matching.unmatch` and :meth:`~Matching.augment_pairs` clear it,
:meth:`Matching.copy` keeps it, and every constructor starts without one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.errors import MatchingError
from repro.graph.csr import INDEX_DTYPE, BipartiteCSR
from repro.instrument.counters import Counters
from repro.instrument.frontier import FrontierLog
from repro.parallel.trace import WorkTrace

UNMATCHED = -1
"""Sentinel for unmatched vertices / unset pointers, as in the paper."""


class Matching:
    """A (partial) matching of a bipartite graph."""

    __slots__ = ("n_x", "n_y", "mate_x", "mate_y", "cover_y")

    def __init__(self, n_x: int, n_y: int, mate_x: np.ndarray, mate_y: np.ndarray) -> None:
        self.n_x = int(n_x)
        self.n_y = int(n_y)
        self.mate_x = np.ascontiguousarray(mate_x, dtype=INDEX_DTYPE)
        self.mate_y = np.ascontiguousarray(mate_y, dtype=INDEX_DTYPE)
        if self.mate_x.shape != (self.n_x,) or self.mate_y.shape != (self.n_y,):
            raise MatchingError("mate array shapes do not match vertex counts")
        self.cover_y: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def empty(cls, graph_or_nx: BipartiteCSR | int, n_y: int | None = None) -> "Matching":
        """The empty matching for a graph (or explicit ``(n_x, n_y)``)."""
        if isinstance(graph_or_nx, BipartiteCSR):
            n_x, n_y = graph_or_nx.n_x, graph_or_nx.n_y
        else:
            n_x = int(graph_or_nx)
            if n_y is None:
                raise MatchingError("Matching.empty(n_x, n_y) needs both counts")
        return cls(
            n_x,
            int(n_y),
            np.full(n_x, UNMATCHED, dtype=INDEX_DTYPE),
            np.full(int(n_y), UNMATCHED, dtype=INDEX_DTYPE),
        )

    @classmethod
    def from_pairs(
        cls, n_x: int, n_y: int, pairs: Iterable[Tuple[int, int]]
    ) -> "Matching":
        """Build from explicit ``(x, y)`` pairs; rejects conflicting pairs."""
        matching = cls.empty(n_x, n_y)
        for x, y in pairs:
            if matching.mate_x[x] != UNMATCHED or matching.mate_y[y] != UNMATCHED:
                raise MatchingError(f"vertex reused in matching pairs at ({x}, {y})")
            matching.match(int(x), int(y))
        return matching

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #

    def match(self, x: int, y: int) -> None:
        """Add edge (x, y) to the matching (endpoints must be free)."""
        if self.mate_x[x] != UNMATCHED or self.mate_y[y] != UNMATCHED:
            raise MatchingError(f"match({x}, {y}) would double-match a vertex")
        self.cover_y = None
        self.mate_x[x] = y
        self.mate_y[y] = x

    def unmatch(self, x: int) -> None:
        """Remove x's matched edge (no-op if x is free)."""
        y = self.mate_x[x]
        if y != UNMATCHED:
            self.cover_y = None
            self.mate_x[x] = UNMATCHED
            self.mate_y[y] = UNMATCHED

    def augment_pairs(self, pairs: Iterable[Tuple[int, int]]) -> None:
        """Overwrite mate pointers along an augmenting path's new edges.

        Unlike :meth:`match` this allows overwriting previously matched
        endpoints — the caller guarantees the pairs come from alternating
        path flips, which keep the matching consistent overall.
        """
        self.cover_y = None
        for x, y in pairs:
            self.mate_x[x] = y
            self.mate_y[y] = x

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    @property
    def cardinality(self) -> int:
        return int(np.count_nonzero(self.mate_x != UNMATCHED))

    def matching_fraction(self) -> float:
        """``2|M| / |V|`` — the paper's "matching number as a fraction of
        the number of vertices" (1.0 iff the matching is perfect)."""
        n = self.n_x + self.n_y
        return (2.0 * self.cardinality / n) if n else 0.0

    def unmatched_x(self) -> np.ndarray:
        return np.flatnonzero(self.mate_x == UNMATCHED).astype(INDEX_DTYPE)

    def unmatched_y(self) -> np.ndarray:
        return np.flatnonzero(self.mate_y == UNMATCHED).astype(INDEX_DTYPE)

    def pairs(self) -> list[Tuple[int, int]]:
        """All matched edges as ``(x, y)`` pairs, sorted by x."""
        xs = np.flatnonzero(self.mate_x != UNMATCHED)
        return [(int(x), int(self.mate_x[x])) for x in xs]

    def is_consistent(self) -> bool:
        """mate_x and mate_y are mutual inverses and in range."""
        return _points_back(self.mate_x, self.mate_y) and _points_back(self.mate_y, self.mate_x)

    def copy(self) -> "Matching":
        """An independent copy of the mates, carrying the same ``cover_y``."""
        clone = Matching(self.n_x, self.n_y, self.mate_x.copy(), self.mate_y.copy())
        clone.cover_y = self.cover_y
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matching):
            return NotImplemented
        return np.array_equal(self.mate_x, other.mate_x) and np.array_equal(
            self.mate_y, other.mate_y
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hashing only
        return id(self)

    def __repr__(self) -> str:
        return f"Matching(n_x={self.n_x}, n_y={self.n_y}, |M|={self.cardinality})"


def _points_back(mate: np.ndarray, other: np.ndarray) -> bool:
    """Every matched entry of ``mate`` indexes ``other`` and ``other`` maps it back."""
    matched = np.flatnonzero(mate != UNMATCHED)
    partners = mate[matched]
    if partners.size and (partners.min() < 0 or partners.max() >= other.shape[0]):
        return False
    return bool(np.array_equal(other[partners], matched))


@dataclass
class MatchResult:
    """What every matching algorithm returns.

    ``matching`` is the final matching; ``counters`` the paper's Fig. 1
    metrics; ``trace`` (when the algorithm was asked to emit one) the
    parallel work trace for the cost model; ``breakdown`` wall-clock seconds
    per step; ``frontier_log`` per-level frontier sizes (Fig. 8), which
    every MS-BFS-Graft engine run keeps.
    """

    matching: Matching
    algorithm: str
    counters: Counters = field(default_factory=Counters)
    trace: Optional[WorkTrace] = None
    breakdown: Dict[str, float] = field(default_factory=dict)
    frontier_log: Optional[FrontierLog] = None
    wall_seconds: float = 0.0

    @property
    def cardinality(self) -> int:
        return self.matching.cardinality


def init_matching(graph: BipartiteCSR, initial: Matching | None) -> Matching:
    """Copy-or-create the working matching for an algorithm run.

    Algorithms never mutate the caller's matching in place. The copy carries
    no ``cover_y``: algorithms write the mate arrays directly, which would
    leave the caller's cover stale.
    """
    if initial is None:
        return Matching.empty(graph)
    if initial.n_x != graph.n_x or initial.n_y != graph.n_y:
        raise MatchingError(
            f"initial matching sized ({initial.n_x}, {initial.n_y}) does not fit "
            f"graph ({graph.n_x}, {graph.n_y})"
        )
    return Matching(initial.n_x, initial.n_y, initial.mate_x.copy(), initial.mate_y.copy())
