"""Locality-aware vertex reordering as a (cacheable) preparation stage.

The level kernels stream CSR adjacency in whatever vertex order the graph
was built with, and the engines' deterministic claim resolution ("first
claimant in frontier order wins", :mod:`repro.core.kernels`) ties the whole
phase trajectory to that numbering: the Y vertex claimed by a frontier, the
tree a recycled row grafts onto, and — decisively — the quality of the
first phase's greedy matching are all functions of vertex order. Reordering
is therefore a legitimate preparation stage: permute the graph once (cost
amortised by the content-addressed layout cache, :mod:`repro.cache`), run
any engine on the permuted layout, and map the matching back through the
inverse permutation. Results are bit-exact in cardinality — the suites in
``tests/matching`` certify the strategy differentially.

One strategy, ``hubsplit`` (:func:`plan_reorder`): it partitions hub
rows from tail rows the way the 2D engines treat hubs, so hub adjacency
packs contiguously (X hubs at the back, Y hubs at the front). Tail X
vertices are placed in a Karp-Sipser-style *elimination order* — repeatedly
place the vertex with the fewest still-unclaimed neighbours — which makes
the engines' first-claim map nearly injective in phase 1: far more distinct
Y claims land in the first greedy sweep, so the repair-phase cascade (and
its grafting churn) collapses. It is the measured winner on every
benchmark family (``docs/performance.md``).

:func:`reorder_graph` is the one plan-and-apply site and
:func:`run_reordered` the one run-and-invert site.

Planning cost is O(m log n) and paid once per graph — the
cache stores the permuted CSR plus both permutations as a derived layout
entry (``repro.cache.store.GraphCache.prepare_layout``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import INDEX_DTYPE, BipartiteCSR
from repro.graph.permute import permute
from repro.matching.base import UNMATCHED, Matching, MatchResult
from repro.telemetry.session import NULL_TELEMETRY

REORDER_STRATEGIES = ("hubsplit",)
"""The concrete reordering strategies behind :func:`plan_reorder`."""

REORDER_CHOICES = ("none",) + REORDER_STRATEGIES + ("auto",)
"""Accepted values of every ``--reorder`` flag (CLI + driver)."""

REORDER_VERSION = 1
"""Bumped whenever a strategy's output changes; part of the layout cache key."""

HUB_DEGREE_FACTOR = 4.0
"""A vertex is a hub when its degree is ``>= max(factor * mean degree, 2)``
— the same threshold family the 2D hub handling uses."""

_TIEBREAK_SEED = 0
"""Fixed seed of the within-degree-class shuffle: plans stay deterministic
per (graph, strategy) while equal-degree runs don't inherit generator
order."""


@dataclass(frozen=True)
class ReorderPlan:
    """A validated ``(row_perm, col_perm)`` pair for one strategy.

    ``x_perm[x]`` is the new id of old X vertex ``x`` (same for Y) — the
    exact convention of :func:`repro.graph.permute.permute`, so a matching
    on the permuted graph satisfies
    ``mate_new[x_perm[x]] == y_perm[mate_old[x]]``.
    """

    strategy: str
    x_perm: np.ndarray
    y_perm: np.ndarray
    _inv: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.strategy not in REORDER_STRATEGIES:
            raise GraphError(
                f"unknown reorder strategy {self.strategy!r}; "
                f"expected one of {REORDER_STRATEGIES}"
            )

    @property
    def n_x(self) -> int:
        return int(self.x_perm.shape[0])

    @property
    def n_y(self) -> int:
        return int(self.y_perm.shape[0])

    def _inverse(self, side: str) -> np.ndarray:
        inv = self._inv.get(side)
        if inv is None:
            perm = self.x_perm if side == "x" else self.y_perm
            inv = np.empty(perm.shape[0], dtype=INDEX_DTYPE)
            inv[perm] = np.arange(perm.shape[0], dtype=INDEX_DTYPE)
            self._inv[side] = inv
        return inv

    def permute_matching(self, matching: Matching) -> Matching:
        """Map a matching on the *original* ids onto the permuted ids."""
        mate_x = np.full(self.n_x, UNMATCHED, dtype=INDEX_DTYPE)
        mate_y = np.full(self.n_y, UNMATCHED, dtype=INDEX_DTYPE)
        matched = np.flatnonzero(matching.mate_x != UNMATCHED)
        if matched.size:
            new_x = self.x_perm[matched]
            new_y = self.y_perm[matching.mate_x[matched]]
            mate_x[new_x] = new_y
            mate_y[new_y] = new_x
        return Matching(self.n_x, self.n_y, mate_x, mate_y)

    def unpermute_matching(self, matching: Matching) -> Matching:
        """Map a matching on the *permuted* ids back to the original ids."""
        inv_x = self._inverse("x")
        inv_y = self._inverse("y")
        mate_x = np.full(self.n_x, UNMATCHED, dtype=INDEX_DTYPE)
        mate_y = np.full(self.n_y, UNMATCHED, dtype=INDEX_DTYPE)
        matched = np.flatnonzero(matching.mate_x != UNMATCHED)
        if matched.size:
            old_x = inv_x[matched]
            old_y = inv_y[matching.mate_x[matched]]
            mate_x[old_x] = old_y
            mate_y[old_y] = old_x
        return Matching(self.n_x, self.n_y, mate_x, mate_y)


def plan_reorder(graph: BipartiteCSR, strategy: str) -> ReorderPlan:
    """Compute the ``(x_perm, y_perm)`` pair of one strategy.

    Deterministic per ``(graph, strategy)``; validated by
    :func:`repro.graph.permute.permute` when applied. ``"none"`` and
    ``"auto"`` are dispatch-level concepts and are rejected here — resolve
    them first (:func:`repro.core.driver.choose_engine`).
    """
    if strategy != "hubsplit":
        raise GraphError(
            f"unknown reorder strategy {strategy!r}; "
            f"expected one of {REORDER_STRATEGIES}"
        )
    return ReorderPlan(
        strategy=strategy,
        x_perm=_perm_from_order(_hubsplit_x_order(graph)),
        y_perm=_perm_from_order(_sort_order(-graph.deg_y)),
    )


def apply_plan(graph: BipartiteCSR, plan: ReorderPlan) -> BipartiteCSR:
    """Relabel ``graph`` through ``plan`` (permutations re-validated)."""
    new_graph, _, _ = permute(graph, plan.x_perm, plan.y_perm)
    return new_graph


def reorder_graph(
    graph: BipartiteCSR, strategy: str, telemetry=None
) -> tuple[BipartiteCSR, ReorderPlan]:
    """Plan + apply in one call; returns ``(permuted_graph, plan)``.

    Timed as the ``reorder_plan`` / ``reorder_apply`` steps of
    ``telemetry`` (when given), which also counts the plan.
    """
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    with tel.step("reorder_plan"):
        plan = plan_reorder(graph, strategy)
    tel.count_reorder_plan(strategy)
    with tel.step("reorder_apply"):
        permuted = apply_plan(graph, plan)
    return permuted, plan


def run_reordered(
    graph: BipartiteCSR,
    initial: Optional[Matching],
    run: Callable[[BipartiteCSR, Optional[Matching]], MatchResult],
    strategy: str = "none",
    plan: Optional[ReorderPlan] = None,
    layout: Optional[BipartiteCSR] = None,
    telemetry=None,
) -> MatchResult:
    """``run(graph, initial)`` on the layout of ``plan`` (planned from
    ``strategy`` when absent, applied when ``layout`` is absent), answered
    in the original ids; ``strategy="none"`` without a plan runs as is."""
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    if plan is None:
        if strategy == "none":
            return run(graph, initial)
        layout, plan = reorder_graph(graph, strategy, tel)
    elif layout is None:
        with tel.step("reorder_apply"):
            layout = apply_plan(graph, plan)
    tel.count_reorder_run(plan.strategy)
    result = run(layout, plan.permute_matching(initial) if initial is not None else None)
    with tel.step("reorder_invert"):
        return replace(result, matching=plan.unpermute_matching(result.matching))


def hub_mask(deg: np.ndarray) -> np.ndarray:
    """Boolean hub mask of one side (degree threshold, see module doc)."""
    if deg.size == 0:
        return np.zeros(0, dtype=bool)
    return deg >= max(HUB_DEGREE_FACTOR * float(deg.mean()), 2.0)


# --------------------------------------------------------------------- #
# strategy internals
# --------------------------------------------------------------------- #


def _perm_from_order(order: np.ndarray) -> np.ndarray:
    """Placement order -> permutation (``perm[order[i]] = i``)."""
    perm = np.empty(order.shape[0], dtype=INDEX_DTYPE)
    perm[order] = np.arange(order.shape[0], dtype=INDEX_DTYPE)
    return perm


def _sort_order(key: np.ndarray) -> np.ndarray:
    """Stable ascending sort of ``key`` with a seeded shuffle tie-break, so
    equal-key vertices don't inherit generator order."""
    rng = np.random.default_rng(_TIEBREAK_SEED)
    shuffle = rng.permutation(key.shape[0])
    return shuffle[np.argsort(key[shuffle], kind="stable")].astype(INDEX_DTYPE)


def _hubsplit_x_order(graph: BipartiteCSR) -> np.ndarray:
    """Tail X vertices in elimination order, hub rows packed at the back."""
    order = _elimination_order(graph)
    hubs = hub_mask(graph.deg_x)
    if not hubs.any():
        return order
    is_hub = hubs[order]
    # Stable partition: tail keeps its elimination order, hubs keep their
    # relative order but pack contiguously at the back of the row range.
    return np.concatenate([order[~is_hub], order[is_hub]])


def _elimination_order(graph: BipartiteCSR) -> np.ndarray:
    """Karp-Sipser-style placement order of the X side.

    ``u[x]`` counts the neighbours of ``x`` that no earlier-placed vertex
    has already claimed. Repeatedly placing the x with the smallest
    ``u[x] >= 1`` (lazy min-heap) means most placed vertices receive
    exactly one first-phase claim — the engines' deterministic
    "first claimant wins" rule then turns phase 1 into a near-maximal
    greedy matching instead of a collision pile-up. Vertices whose whole
    neighbourhood is claimed before placement (``u == 0``) cannot attract
    a claim anywhere, so they go to the back, ascending by degree.
    """
    import heapq

    n_x = graph.n_x
    if n_x == 0:
        return np.empty(0, dtype=INDEX_DTYPE)
    x_ptr, x_adj = graph.x_ptr, graph.x_adj
    y_ptr, y_adj = graph.y_ptr, graph.y_adj
    u = np.diff(x_ptr).astype(np.int64)
    claimed = np.zeros(graph.n_y, dtype=bool)
    placed = np.zeros(n_x, dtype=bool)
    deg_x = graph.deg_x
    rng = np.random.default_rng(_TIEBREAK_SEED)
    jitter = rng.permutation(n_x)
    heap = [(int(u[x]), int(jitter[x]), x) for x in range(n_x) if u[x] > 0]
    heapq.heapify(heap)
    order = np.empty(n_x, dtype=INDEX_DTYPE)
    pos = 0
    while heap:
        k, j, x = heapq.heappop(heap)
        if placed[x] or k != u[x]:
            continue  # stale heap entry; a fresh one was pushed on update
        placed[x] = True
        order[pos] = x
        pos += 1
        for y in x_adj[x_ptr[x]:x_ptr[x + 1]]:
            if not claimed[y]:
                claimed[y] = True
                for xn in y_adj[y_ptr[y]:y_ptr[y + 1]]:
                    if not placed[xn]:
                        u[xn] -= 1
                        if u[xn] > 0:
                            heapq.heappush(heap, (int(u[xn]), int(jitter[xn]), int(xn)))
    rest = np.flatnonzero(~placed)
    if rest.size:
        rest = rest[np.argsort(deg_x[rest], kind="stable")]
        order[pos:] = rest
    return order
