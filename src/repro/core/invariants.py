"""Runtime invariant checks for the MS-BFS-Graft engine.

These are the paper's structural correctness claims as executable checks,
raising :class:`~repro.errors.InvariantViolation` (never bare ``assert``,
which disappears under ``python -O``) so fault-injected runs fail loudly:

* **mate consistency** — ``mate_x`` and ``mate_y`` are mutual inverses, in
  range, and every matched pair is an edge of the graph;
* **tree disjointness** — every visited Y vertex has exactly one parent
  whose tree root agrees with its own (atomic ``visited`` claims make
  this hold under any interleaving; a de-atomised claim breaks it);
* **alternating paths** — each live root's ``leaf`` pointer reaches the
  root through a cycle-free path that strictly alternates unmatched and
  matched edges;
* **forest counters** — ``num_unvisited_y``, ``unvisited_deg`` and
  ``num_candidates`` agree with ``visited`` and ``deg_y`` (the direction
  rule and the phase's exit read them, so a drifted count ends a phase
  early or picks the wrong direction).

The engines run all four at every phase end under
``GraftOptions.check_invariants``, and :class:`InvariantChecker` bundles
them as a post-barrier/post-phase hook (the race monitor drives it after
every simulated barrier). :mod:`repro.analysis.invariants` re-exports
this module.
"""

from __future__ import annotations

import numpy as np

from repro.core.forest import ForestState
from repro.errors import InvariantViolation
from repro.graph.csr import BipartiteCSR
from repro.matching.base import UNMATCHED, Matching


def check_mate_consistency(graph: BipartiteCSR, matching: Matching) -> None:
    """``mate_x``/``mate_y`` are mutual inverses over edges of the graph."""
    mx, my = matching.mate_x, matching.mate_y
    matched_x = np.flatnonzero(mx != UNMATCHED)
    if matched_x.size:
        ys = mx[matched_x]
        if int(ys.min()) < 0 or int(ys.max()) >= matching.n_y:
            raise InvariantViolation("mate_x points outside the Y vertex range")
        bad = matched_x[my[ys] != matched_x]
        if bad.size:
            x = int(bad[0])
            raise InvariantViolation(
                f"mate asymmetry: mate_x[{x}]={int(mx[x])} but "
                f"mate_y[{int(mx[x])}]={int(my[mx[x]])}"
            )
        for x in matched_x:
            if not graph.has_edge(int(x), int(mx[x])):
                raise InvariantViolation(
                    f"matched pair ({int(x)}, {int(mx[x])}) is not an edge of the graph"
                )
    matched_y = np.flatnonzero(my != UNMATCHED)
    if matched_y.size:
        xs = my[matched_y]
        if int(xs.min()) < 0 or int(xs.max()) >= matching.n_x:
            raise InvariantViolation("mate_y points outside the X vertex range")
        bad = matched_y[mx[xs] != matched_y]
        if bad.size:
            y = int(bad[0])
            raise InvariantViolation(
                f"mate asymmetry: mate_y[{y}]={int(my[y])} but "
                f"mate_x[{int(my[y])}]={int(mx[my[y]])}"
            )


def check_tree_disjointness(
    graph: BipartiteCSR, state: ForestState, matching: Matching
) -> None:
    """Visited Y vertices belong to exactly one well-formed tree.

    The single ``parent``/``root_y`` arrays can only *represent* one tree
    per vertex; what a lost atomic claim actually corrupts is agreement
    between the pointers (e.g. ``parent`` written by one winner and
    ``root_y`` by the other), which is what this check catches.
    """
    unrooted = np.flatnonzero((state.visited == 0) & (state.root_y != UNMATCHED))
    if unrooted.size:
        y = int(unrooted[0])
        raise InvariantViolation(
            f"unvisited y={y} still carries tree root {int(state.root_y[y])}"
        )
    for y in np.flatnonzero(state.visited != 0):
        y = int(y)
        x = int(state.parent[y])
        if x == UNMATCHED:
            raise InvariantViolation(f"visited y={y} has no parent")
        if not graph.has_edge(x, y):
            raise InvariantViolation(f"parent edge ({x}, {y}) is not in the graph")
        if state.root_y[y] == UNMATCHED:
            raise InvariantViolation(f"visited y={y} has no root")
        if state.root_x[x] != state.root_y[y]:
            raise InvariantViolation(
                f"tree mismatch at claimed y={y}: parent x={x} lies in tree "
                f"{int(state.root_x[x])} but y lies in tree {int(state.root_y[y])}"
            )
        root = int(state.root_y[y])
        if matching.mate_x[root] != UNMATCHED and state.leaf[root] == UNMATCHED:
            raise InvariantViolation(
                f"tree root {root} is matched but its tree is not renewable"
            )


def check_alternating_paths(
    graph: BipartiteCSR, state: ForestState, matching: Matching
) -> None:
    """Each live root's ``leaf`` reaches the root on an alternating path."""
    n_x = state.n_x
    live_roots = np.flatnonzero(
        (state.root_x == np.arange(n_x)) & (state.leaf != UNMATCHED)
    )
    for x0 in live_roots:
        x0 = int(x0)
        y0 = int(state.leaf[x0])
        if not state.visited[y0] or state.root_y[y0] != x0:
            continue  # stale pointer into a torn-down tree; harmless
        if matching.mate_y[y0] != UNMATCHED:
            raise InvariantViolation(
                f"leaf[{x0}]={y0} is matched; an augmenting path must end unmatched"
            )
        seen: set[int] = set()
        y = y0
        while True:
            if y in seen:
                raise InvariantViolation(
                    f"augmenting path from leaf[{x0}]={y0} revisits y={y} (cycle)"
                )
            seen.add(y)
            x = int(state.parent[y])
            if x == UNMATCHED:
                raise InvariantViolation(f"path vertex y={y} has no parent")
            if not graph.has_edge(x, y):
                raise InvariantViolation(f"path edge ({x}, {y}) is not in the graph")
            if matching.mate_y[y] == x:
                raise InvariantViolation(
                    f"path edge ({x}, {y}) is a matched edge; alternation broken"
                )
            if int(state.root_x[x]) != x0:
                raise InvariantViolation(
                    f"path from leaf[{x0}] crosses into tree {int(state.root_x[x])} at x={x}"
                )
            if x == x0:
                if matching.mate_x[x0] != UNMATCHED:
                    raise InvariantViolation(
                        f"tree root {x0} is matched but still owns an augmenting path"
                    )
                break
            nxt = int(matching.mate_x[x])
            if nxt == UNMATCHED:
                raise InvariantViolation(
                    f"interior path vertex x={x} is unmatched but is not the root {x0}"
                )
            y = nxt


def check_forest_counters(state: ForestState) -> None:
    """The running counters equal their recount from ``visited`` and ``deg_y``."""
    unvisited = state.visited == 0
    recount = {
        "num_unvisited_y": int(np.count_nonzero(unvisited)),
        "unvisited_deg": int(state.deg_y[unvisited].sum()),
        "num_candidates": int(np.count_nonzero(unvisited & (state.deg_y > 0))),
    }
    for name, expected in recount.items():
        held = int(getattr(state, name))
        if held != expected:
            raise InvariantViolation(
                f"forest counter {name}={held} but visited and deg_y give {expected}"
            )


def check_all_invariants(
    graph: BipartiteCSR, state: ForestState, matching: Matching
) -> None:
    """Run every engine invariant; raises on the first violation."""
    check_mate_consistency(graph, matching)
    check_tree_disjointness(graph, state, matching)
    check_alternating_paths(graph, state, matching)
    check_forest_counters(state)


class InvariantChecker:
    """Re-runnable bundle of all invariants over one engine run's state.

    Bound once to the run's (graph, forest state, matching) triple; the
    race monitor calls :meth:`check` after every simulated barrier and
    phase. ``checks_run`` lets tests assert the hook actually fired.
    """

    def __init__(
        self, graph: BipartiteCSR, state: ForestState, matching: Matching
    ) -> None:
        self.graph = graph
        self.state = state
        self.matching = matching
        self.checks_run = 0

    def check(self) -> None:
        self.checks_run += 1
        check_all_invariants(self.graph, self.state, self.matching)
