"""Push-relabel maximum bipartite matching (the paper's PR competitor).

FIFO push-relabel specialised to unit-capacity bipartite graphs with the
*double push* operation and periodic *global relabelling*, following the
algorithm of Kaya, Langguth, Manne and Uçar that Langguth et al.'s parallel
implementation (the paper's PR baseline) builds on:

* labels ``d`` approximate residual distance to the sink (X even, Y odd);
* an active (free) X vertex relabels itself to ``min_neighbour_label + 1``
  and pushes to the minimum-label neighbour ``y``: if ``y`` is free they
  match; otherwise x *steals* ``y``, the old mate re-enters the active
  queue, and ``d[y]`` increases by 2;
* a free X vertex whose neighbours all have labels >= n can never reach the
  sink and is discarded;
* global relabelling recomputes exact labels with a backward BFS from the
  free Y vertices every ``m / relabel_frequency`` edge scans.

The paper tunes the PR baseline with a queue limit of 500 and relabel
frequency 2 (serial) / 16 (40 threads) — the same knobs exposed here. The
work trace reflects Langguth et al.'s parallelisation: rounds of up to
``queue_limit`` active vertices processed concurrently between barriers,
plus level-synchronous relabel sweeps.
"""

from __future__ import annotations

import time
from collections import deque

from repro.graph.csr import BipartiteCSR
from repro.instrument.counters import Counters
from repro.matching._common import adjacency_lists
from repro.matching.base import MatchResult, Matching, init_matching
from repro.parallel.trace import WorkTrace


def push_relabel(
    graph: BipartiteCSR,
    initial: Matching | None = None,
    *,
    queue_limit: int = 500,
    relabel_frequency: float = 2.0,
    emit_trace: bool = False,
) -> MatchResult:
    """Maximum matching with FIFO push-relabel + global relabelling."""
    start = time.perf_counter()
    matching = init_matching(graph, initial)
    counters = Counters()
    x_ptr, x_adj, y_ptr, y_adj = adjacency_lists(graph)
    n_x, n_y = graph.n_x, graph.n_y
    mate_x = matching.mate_x.tolist()
    mate_y = matching.mate_y.tolist()
    # "Infinite" label: strictly greater than any finite residual distance
    # (a residual path to the sink visits at most n = n_x + n_y vertices,
    # so finite distances can reach exactly n).
    lmax = n_x + n_y + 1
    d_x = [0] * n_x
    d_y = [1] * n_y
    trace = WorkTrace() if emit_trace else None
    edges = 0
    relabel_budget = max(1, int(graph.num_directed_edges / max(relabel_frequency, 1e-9)))
    edges_since_relabel = 0

    def global_relabel() -> None:
        """Exact labels via backward BFS from free Y vertices."""
        nonlocal edges, edges_since_relabel
        for y in range(n_y):
            d_y[y] = lmax
        for x in range(n_x):
            d_x[x] = lmax
        if trace is not None:
            # The label-reset sweep is real (parallel memset-like) work.
            trace.add_uniform("relabel", n_x + n_y, 0.25)
        frontier = [y for y in range(n_y) if mate_y[y] == -1]
        for y in frontier:
            d_y[y] = 1
        label = 1
        relabel_costs: list[int] = []
        while frontier:
            if trace is not None:
                # Per-vertex costs of this sweep; the whole sweep is emitted
                # as one region below (Langguth et al. run global relabelling
                # as a single parallel phase).
                relabel_costs.extend(
                    (y_ptr[v + 1] - y_ptr[v]) + 1 if label % 2 == 1 else 2
                    for v in frontier
                )
            next_frontier = []
            if label % 2 == 1:
                # Y level -> X via unmatched edges (residual x->y reversed).
                for y in frontier:
                    for i in range(y_ptr[y], y_ptr[y + 1]):
                        edges += 1
                        x = y_adj[i]
                        if d_x[x] == lmax and mate_x[x] != y:
                            d_x[x] = label + 1
                            next_frontier.append(x)
            else:
                # X level -> its matched Y (residual y->x reversed).
                for x in frontier:
                    edges += 1
                    y = mate_x[x]
                    if y != -1 and d_y[y] == lmax:
                        d_y[y] = label + 1
                        next_frontier.append(y)
            frontier = next_frontier
            label += 1
        if trace is not None and relabel_costs:
            trace.add("relabel", relabel_costs)
        edges_since_relabel = 0
        counters.phases += 1  # count relabel sweeps as the PR "phases"

    global_relabel()
    queue: deque[int] = deque(
        x for x in range(n_x) if mate_x[x] == -1 and d_x[x] < lmax
    )

    while True:
        if not queue:
            # Certified termination: heuristic label updates (stale row
            # labels, steal increments) may over-raise labels and discard a
            # still-matchable vertex. Recompute exact labels; only stop when
            # every free X vertex provably cannot reach the sink.
            global_relabel()
            queue = deque(x for x in range(n_x) if mate_x[x] == -1 and d_x[x] < lmax)
            if not queue:
                break
        # One parallel round: up to queue_limit active vertices.
        round_size = min(queue_limit, len(queue))
        round_costs = []
        steals = 0
        for _ in range(round_size):
            x = queue.popleft()
            if mate_x[x] != -1:
                continue
            if d_x[x] >= lmax:
                continue
            # Find the minimum-label neighbour.
            best_y = -1
            best_d = lmax
            scan = 0
            for i in range(x_ptr[x], x_ptr[x + 1]):
                scan += 1
                y = x_adj[i]
                dy = d_y[y]
                if dy < best_d:
                    best_d = dy
                    best_y = y
                    if dy == d_x[x] - 1:
                        break  # already admissible; no smaller label exists
            edges += scan
            edges_since_relabel += scan
            round_costs.append(scan + 1)
            if best_y == -1 or best_d >= lmax:
                d_x[x] = lmax  # unmatchable; discard
                continue
            d_x[x] = best_d + 1  # relabel
            old_mate = mate_y[best_y]
            mate_x[x] = best_y
            mate_y[best_y] = x
            if old_mate != -1:
                # Double push: steal y, bump its label, reactivate old mate.
                mate_x[old_mate] = -1
                d_y[best_y] = best_d + 2
                queue.append(old_mate)
                steals += 1
        if trace is not None and round_costs:
            trace.add(
                "push", round_costs, atomics=round_size + steals,
                memory_pattern="irregular",
            )
        if edges_since_relabel >= relabel_budget:
            global_relabel()
            # Drop vertices proven unmatchable by the exact labels.
            queue = deque(x for x in queue if d_x[x] < lmax and mate_x[x] == -1)

    matching.mate_x[:] = mate_x
    matching.mate_y[:] = mate_y
    counters.edges_traversed = edges
    return MatchResult(
        matching=matching,
        algorithm="push-relabel",
        counters=counters,
        trace=trace,
        wall_seconds=time.perf_counter() - start,
    )
