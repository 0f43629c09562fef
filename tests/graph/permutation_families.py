"""Test-built vertex relabellings for the permutation round-trip suites.

Every engine must give the same answer on any relabelling of its input:
match the relabelled graph, map the matching back through the inverse
permutation, and it must certify on the original graph. These families
supply three structurally different relabellings, built here from numpy
and scipy and applied through :func:`repro.graph.permute.permute`:

* ``degree`` — each side sorted by descending degree (stable);
* ``bfs`` — reverse Cuthill-McKee over the symmetric ``(n_x + n_y)``
  bipartite adjacency, split back into its X and Y parts;
* ``hubsplit`` — hub vertices packed contiguously, X hubs at the back
  and Y hubs at the front, the tail of each side in ascending degree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import reverse_cuthill_mckee

from repro.graph.csr import INDEX_DTYPE, BipartiteCSR
from repro.graph.permute import permute
from repro.matching.base import UNMATCHED, Matching

PERMUTATION_FAMILIES = ("bfs", "degree", "hubsplit")

HUB_DEGREE_FACTOR = 4.0
"""A vertex is a hub when its degree is ``>= max(factor * mean degree, 2)``."""


@dataclass(frozen=True)
class Relabelling:
    """One family's ``(x_perm, y_perm)`` pair, in the convention of
    :func:`repro.graph.permute.permute`: ``x_perm[x]`` is the new id of old
    X vertex ``x`` (same for Y)."""

    family: str
    x_perm: np.ndarray
    y_perm: np.ndarray

    def apply(self, graph: BipartiteCSR) -> BipartiteCSR:
        return permute(graph, self.x_perm, self.y_perm)[0]

    def permute_matching(self, matching: Matching) -> Matching:
        """Map a matching on the original ids onto the relabelled ids."""
        return _relabel_matching(matching, self.x_perm, self.y_perm)

    def unpermute_matching(self, matching: Matching) -> Matching:
        """Map a matching on the relabelled ids back to the original ids."""
        return _relabel_matching(
            matching, _perm_from_order(self.x_perm), _perm_from_order(self.y_perm)
        )


def family_plan(graph: BipartiteCSR, family: str) -> Relabelling:
    """The relabelling of one of :data:`PERMUTATION_FAMILIES` for ``graph``."""
    if family == "degree":
        x_order = np.argsort(-graph.deg_x, kind="stable")
        y_order = np.argsort(-graph.deg_y, kind="stable")
    elif family == "bfs":
        x_order, y_order = _rcm_orders(graph)
    elif family == "hubsplit":
        # lexsort's last key is the primary one: tails before X hubs, Y
        # hubs before tails, ascending degree within each group.
        x_order = np.lexsort((graph.deg_x, hub_mask(graph.deg_x)))
        y_order = np.lexsort((graph.deg_y, ~hub_mask(graph.deg_y)))
    else:
        raise ValueError(f"unknown permutation family {family!r}")
    return Relabelling(family, _perm_from_order(x_order), _perm_from_order(y_order))


def hub_mask(deg: np.ndarray) -> np.ndarray:
    """Boolean mask of the hub vertices of one side."""
    if deg.size == 0:
        return np.zeros(0, dtype=bool)
    return deg >= max(HUB_DEGREE_FACTOR * float(deg.mean()), 2.0)


def _relabel_matching(
    matching: Matching, x_map: np.ndarray, y_map: np.ndarray
) -> Matching:
    n_x, n_y = x_map.shape[0], y_map.shape[0]
    mate_x = np.full(n_x, UNMATCHED, dtype=INDEX_DTYPE)
    mate_y = np.full(n_y, UNMATCHED, dtype=INDEX_DTYPE)
    matched = np.flatnonzero(matching.mate_x != UNMATCHED)
    if matched.size:
        new_x = x_map[matched]
        new_y = y_map[matching.mate_x[matched]]
        mate_x[new_x] = new_y
        mate_y[new_y] = new_x
    return Matching(n_x, n_y, mate_x, mate_y)


def _perm_from_order(order: np.ndarray) -> np.ndarray:
    perm = np.empty(order.shape[0], dtype=INDEX_DTYPE)
    perm[order] = np.arange(order.shape[0], dtype=INDEX_DTYPE)
    return perm


def _rcm_orders(graph: BipartiteCSR) -> tuple[np.ndarray, np.ndarray]:
    n_x, n = graph.n_x, graph.n_x + graph.n_y
    if n == 0:
        empty = np.empty(0, dtype=INDEX_DTYPE)
        return empty, empty
    xs, ys = graph.edge_arrays()
    rows = np.concatenate([xs, ys + n_x])
    cols = np.concatenate([ys + n_x, xs])
    adj = csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
    order = reverse_cuthill_mckee(adj, symmetric_mode=True)
    return order[order < n_x], order[order >= n_x] - n_x
