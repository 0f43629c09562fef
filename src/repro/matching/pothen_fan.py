"""Pothen-Fan: multi-source DFS with lookahead (and fairness).

The PF algorithm runs in phases. In each phase it starts a DFS from every
unmatched X vertex; Y-side visited flags are shared across the phase's
searches, so the discovered augmenting paths are vertex-disjoint and each is
applied immediately. Two classic refinements:

* **lookahead** — before descending, a vertex first checks whether any of
  its neighbours is free, using a monotone per-vertex cursor (amortised
  O(m) over the whole run);
* **fairness** — adjacency lists are scanned in alternating direction on
  alternating phases, avoiding systematically unlucky orderings (this is
  the "PF with fairness" variant the paper compares against).

The parallel PF of Azad et al. assigns whole DFS trees to threads — a
coarse-grained decomposition. The work trace (``emit_trace=True``)
therefore has one item per root per phase (cost = edges that root's search
traversed) scheduled dynamically, which is exactly why PF shows load
imbalance and high run-to-run variability in the paper's Figs. 3 and
Section V-B.
"""

from __future__ import annotations

import time

from repro.graph.csr import BipartiteCSR
from repro.instrument.counters import Counters
from repro.matching._common import adjacency_lists
from repro.matching.base import MatchResult, Matching, init_matching
from repro.parallel.trace import WorkTrace


def pothen_fan(
    graph: BipartiteCSR,
    initial: Matching | None = None,
    *,
    fairness: bool = True,
    lookahead: bool = True,
    emit_trace: bool = False,
) -> MatchResult:
    """Maximum matching with the Pothen-Fan algorithm."""
    start = time.perf_counter()
    matching = init_matching(graph, initial)
    counters = Counters()
    x_ptr, x_adj, _, _ = adjacency_lists(graph)
    n_x = graph.n_x
    mate_x = matching.mate_x.tolist()
    mate_y = matching.mate_y.tolist()
    visited = [0] * graph.n_y  # visited[y] == phase number
    la_ptr = [x_ptr[x] for x in range(n_x)]  # monotone lookahead cursors
    trace = WorkTrace() if emit_trace else None
    edges = 0
    claims = 0
    phase = 0

    def lookahead_scan(x: int) -> int:
        """Advance x's lookahead cursor to a free neighbour; -1 if none."""
        nonlocal edges
        i = la_ptr[x]
        end = x_ptr[x + 1]
        while i < end:
            edges += 1
            y = x_adj[i]
            if mate_y[y] == -1:
                la_ptr[x] = i  # stay: y will be matched, cursor moves next call
                return y
            i += 1
        la_ptr[x] = i
        return -1

    def dfs(x0: int, reverse: bool) -> int:
        """One PF search; returns augmenting path length in edges, 0 if none."""
        nonlocal edges, claims
        if lookahead:
            y = lookahead_scan(x0)
            if y != -1:
                visited[y] = phase
                claims += 1
                mate_x[x0] = y
                mate_y[y] = x0
                return 1
        # Stack frames: [x, next_slot, chosen_y]; slots walk forward or
        # backward depending on the fairness direction.
        step = -1 if reverse else 1
        first = (x_ptr[x0 + 1] - 1) if reverse else x_ptr[x0]
        stack = [[x0, first, -1]]
        while stack:
            frame = stack[-1]
            x, i = frame[0], frame[1]
            if (reverse and i < x_ptr[x]) or (not reverse and i >= x_ptr[x + 1]):
                stack.pop()
                continue
            frame[1] = i + step
            edges += 1
            y = x_adj[i]
            if visited[y] == phase:
                continue
            mate = mate_y[y]
            if mate == -1:
                # Only reachable when lookahead is disabled (lookahead would
                # have caught a free neighbour before the descent).
                visited[y] = phase
                claims += 1
                frame[2] = y
                for fx, _, fy in stack:
                    mate_x[fx] = fy
                    mate_y[fy] = fx
                return 2 * len(stack) - 1
            visited[y] = phase
            claims += 1
            if lookahead:
                y2 = lookahead_scan(mate)
                if y2 != -1:
                    visited[y2] = phase
                    claims += 1
                    frame[2] = y
                    stack.append([mate, 0, y2])
                    for fx, _, fy in stack:
                        mate_x[fx] = fy
                        mate_y[fy] = fx
                    return 2 * len(stack) - 1
            frame[2] = y
            nxt = (x_ptr[mate + 1] - 1) if reverse else x_ptr[mate]
            stack.append([mate, nxt, -1])
        return 0

    while True:
        phase += 1
        counters.phases += 1
        reverse = fairness and (phase % 2 == 0)
        roots = [x for x in range(n_x) if mate_x[x] == -1]
        augmented = 0
        claims = 0
        root_costs = []
        for x0 in roots:
            before = edges
            length = dfs(x0, reverse)
            root_costs.append(edges - before + 1)
            if length:
                counters.record_path(length)
                augmented += 1
        if trace is not None:
            trace.add(
                "dfs",
                root_costs,
                schedule="dynamic",
                atomics=claims,
                memory_pattern="irregular",
            )
        if augmented == 0:
            break

    matching.mate_x[:] = mate_x
    matching.mate_y[:] = mate_y
    counters.edges_traversed = edges
    return MatchResult(
        matching=matching,
        algorithm="pothen-fan" if fairness else "pothen-fan-nofair",
        counters=counters,
        trace=trace,
        wall_seconds=time.perf_counter() - start,
    )
