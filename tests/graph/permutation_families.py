"""Vertex relabellings beyond the library's ``hubsplit`` plan.

The round-trip machinery — :meth:`ReorderPlan.permute_matching`,
:meth:`ReorderPlan.unpermute_matching`, :func:`apply_plan` and the
``reorder_plan=`` / ``reorder_layout=`` path of every algorithm — must be
exact for *any* relabelling, not only the one :func:`plan_reorder` computes.
Besides ``hubsplit`` these families supply two structurally different
permutations, built here from numpy and scipy rather than from the package:

* ``degree`` — each side sorted by descending degree (stable);
* ``bfs`` — reverse Cuthill-McKee over the symmetric ``(n_x + n_y)``
  bipartite adjacency, split back into its X and Y parts.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import reverse_cuthill_mckee

from repro.graph.csr import INDEX_DTYPE, BipartiteCSR
from repro.graph.reorder import ReorderPlan, plan_reorder

PERMUTATION_FAMILIES = ("bfs", "degree", "hubsplit")


class FixedPlan(ReorderPlan):
    """A :class:`ReorderPlan` carrying test-built permutations; its
    ``strategy`` is only a label, not a registered strategy."""

    def __post_init__(self) -> None:
        pass


def family_plan(graph: BipartiteCSR, family: str) -> ReorderPlan:
    """The plan of one of :data:`PERMUTATION_FAMILIES` for ``graph``."""
    if family == "hubsplit":
        return plan_reorder(graph, "hubsplit")
    if family == "degree":
        x_order = np.argsort(-graph.deg_x, kind="stable")
        y_order = np.argsort(-graph.deg_y, kind="stable")
    elif family == "bfs":
        x_order, y_order = _rcm_orders(graph)
    else:
        raise ValueError(f"unknown permutation family {family!r}")
    return FixedPlan(family, _perm_from_order(x_order), _perm_from_order(y_order))


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
