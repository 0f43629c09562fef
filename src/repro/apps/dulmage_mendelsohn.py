"""Coarse Dulmage-Mendelsohn decomposition.

Given a maximum matching M of the bipartite graph of a sparse matrix, the
coarse DM decomposition splits rows (X) and columns (Y) into three parts:

* **horizontal** ``(X_h, Y_h)`` — vertices reachable by M-alternating paths
  from unmatched *columns*; X_h is perfectly matched into Y_h and
  ``|Y_h| > |X_h|`` (underdetermined part);
* **vertical** ``(X_v, Y_v)`` — vertices reachable by alternating paths
  from unmatched *rows*; ``|X_v| > |Y_v|`` (overdetermined part);
* **square** ``(X_s, Y_s)`` — everything else; perfectly matched.

The decomposition is canonical: it does not depend on which maximum
matching is used (a classical result), which our property tests exploit by
computing it from different algorithms' matchings and comparing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import VerificationError
from repro.graph.csr import BipartiteCSR
from repro.matching.base import Matching
from repro.matching.verify import alternating_certificate, alternating_reach


@dataclass(frozen=True)
class DMDecomposition:
    """Index arrays of the coarse DM parts (sorted, disjoint, exhaustive)."""

    horizontal_x: np.ndarray
    horizontal_y: np.ndarray
    square_x: np.ndarray
    square_y: np.ndarray
    vertical_x: np.ndarray
    vertical_y: np.ndarray

    def summary(self) -> str:
        return (
            f"DM: horizontal ({self.horizontal_x.size} x {self.horizontal_y.size}), "
            f"square ({self.square_x.size} x {self.square_y.size}), "
            f"vertical ({self.vertical_x.size} x {self.vertical_y.size})"
        )


def dulmage_mendelsohn(graph: BipartiteCSR, matching: Matching) -> DMDecomposition:
    """Coarse DM decomposition from a *maximum* matching.

    Raises :class:`VerificationError` if ``matching`` is not maximum (the
    decomposition is only defined for maximum matchings).
    """
    # Vertical: the certificate's alternating reach from unmatched rows.
    reach_v_x, reach_v_y, found = alternating_certificate(graph, matching)
    if found:
        raise VerificationError("Dulmage-Mendelsohn needs a maximum matching")
    # Horizontal: the same sweep from unmatched columns, roles swapped.
    reach_h_y, reach_h_x, _ = alternating_reach(
        graph.y_ptr, graph.y_adj, matching.mate_y, matching.mate_x
    )

    if bool(np.any(reach_h_x & reach_v_x)) or bool(np.any(reach_h_y & reach_v_y)):
        raise VerificationError(
            "horizontal and vertical parts overlap — matching was not maximum"
        )
    square_x = ~(reach_h_x | reach_v_x)
    square_y = ~(reach_h_y | reach_v_y)
    return DMDecomposition(
        horizontal_x=np.flatnonzero(reach_h_x),
        horizontal_y=np.flatnonzero(reach_h_y),
        square_x=np.flatnonzero(square_x),
        square_y=np.flatnonzero(square_y),
        vertical_x=np.flatnonzero(reach_v_x),
        vertical_y=np.flatnonzero(reach_v_y),
    )
