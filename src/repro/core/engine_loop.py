"""The MS-BFS-Graft phase loop (Algorithm 3), written once.

The python, numpy, interleaved and mp engines all run through
:func:`run_phases`. An engine hands the driver a :class:`PhaseSteps` object
holding its kernels; the driver owns the control flow around them: the run
span and ``setup`` step, the phase counter and ``options.begin_phase``, the
frontier log, the alpha direction rule (``vertex`` and ``edge``), the level,
step and edge counters with their telemetry hooks, the stop when a phase
augments nothing, the alpha graft-or-rebuild test, and the ``MatchResult``.

Each step is timed once: one ``perf_counter`` pair around the step's
telemetry span feeds ``MatchResult.breakdown``, so the breakdown keys are
exactly the step spans the run emitted.
"""

from __future__ import annotations

import time
from typing import Callable, Dict

from repro.core.options import GraftOptions
from repro.graph.csr import BipartiteCSR
from repro.instrument.counters import Counters
from repro.instrument.frontier import FrontierLog
from repro.matching.base import MatchResult, Matching, init_matching
from repro.telemetry.session import NULL_TELEMETRY


class PhaseSteps:
    """The kernels one engine hands to :func:`run_phases`.

    A frontier is any sequence of X vertices with ``len`` and slicing (a
    list or an index array). Engines set, in their constructor:

    * ``frontier`` — the first phase's frontier (all unmatched X roots);
    * ``num_unvisited_y`` / ``unvisited_deg`` — live count and degree sum
      of the unvisited Y vertices, read by the direction rule.

    and implement:

    * ``topdown(frontier)`` / ``bottomup(frontier)`` — grow one level
      (Algorithms 4 and 6); return ``(next_frontier, edges, claims)``;
    * ``augment()`` — flip every discovered path; return their lengths;
    * ``partition()`` — the GRAFT statistics pass; return
      ``(active_x_count, renewable_y_count)``;
    * ``graft()`` — re-attach the renewable Y vertices to active trees;
      return ``(next_frontier, edges, grafted)``, where ``grafted`` is the
      engine's own graft count;
    * ``rebuild()`` — destroy the active trees and re-root every unmatched
      X vertex; return the new frontier.
    """

    trace = None
    """The run's :class:`~repro.parallel.trace.WorkTrace`, if it keeps one."""

    def end_phase(self, phase: int) -> None:
        """Called after every phase that augmented (invariant checks etc.)."""


def run_phases(
    engine: str,
    graph: BipartiteCSR,
    initial: Matching | None,
    options: GraftOptions,
    make_steps: Callable[[Matching, Counters], PhaseSteps],
    *,
    algorithm: str | None = None,
) -> MatchResult:
    """Run Algorithm 3 with the kernels ``make_steps(matching, counters)``
    builds; ``algorithm`` overrides the result's algorithm name."""
    start = time.perf_counter()
    tel = options.telemetry if options.telemetry is not None else NULL_TELEMETRY
    with tel.run_span(engine, algorithm=options.algorithm_name, graph=graph):
        with tel.step("setup"):
            matching = init_matching(graph, initial)
            counters = Counters()
            frontier_log = FrontierLog() if options.record_frontiers else None
            steps = make_steps(matching, counters)
            frontier = steps.frontier
        breakdown: Dict[str, float] = {}

        def timed(name, kernel, *args):
            t0 = time.perf_counter()
            with tel.step(name):
                out = kernel(*args)
            breakdown[name] = breakdown.get(name, 0.0) + time.perf_counter() - t0
            return out

        alpha = options.alpha
        deg_x = graph.deg_x
        edge_rule = options.direction_strategy == "edge"
        while True:
            counters.phases += 1
            options.begin_phase(counters.phases)
            if frontier_log is not None:
                frontier_log.start_phase()

            # --- Step 1: grow the alternating BFS forest ------------------- #
            while len(frontier):
                if steps.num_unvisited_y == 0:
                    # No undiscovered Y vertex remains: the frontier cannot
                    # make progress or find an augmenting path.
                    frontier = frontier[:0]
                    break
                size = len(frontier)
                if frontier_log is not None:
                    frontier_log.record(size)
                tel.observe_frontier(size)
                counters.bfs_levels += 1
                if not options.direction_optimizing:
                    top_down = True
                elif edge_rule:
                    # unvisited_deg is kept as a running sum, so the switch
                    # costs O(|frontier|), not an O(n_y) sum per level.
                    top_down = int(deg_x[frontier].sum()) < steps.unvisited_deg / alpha
                else:
                    top_down = size < steps.num_unvisited_y / alpha
                if top_down:
                    counters.topdown_steps += 1
                    frontier, edges, claims = timed("topdown", steps.topdown, frontier)
                    tel.count_level("topdown", claims=claims)
                else:
                    counters.bottomup_steps += 1
                    frontier, edges, claims = timed("bottomup", steps.bottomup, frontier)
                    tel.count_level("bottomup", claims=claims)
                counters.edges_traversed += edges
                tel.count_edges(edges)
                tel.observe_candidates(steps.num_unvisited_y)

            # --- Step 2: augment along the discovered paths ---------------- #
            lengths = timed("augment", steps.augment)
            counters.record_paths(lengths)
            if len(lengths) == 0:
                break  # no augmenting path in this phase: the matching is maximum

            # --- Step 3: graft or rebuild (Algorithm 7) -------------------- #
            active_x, renewable_y = timed("statistics", steps.partition)
            if options.grafting and active_x > renewable_y / alpha:
                frontier, edges, grafted = timed("grafting", steps.graft)
                counters.edges_traversed += edges
                tel.count_edges(edges)
                counters.grafts += grafted
            else:
                counters.tree_rebuilds += 1
                frontier = timed("grafting", steps.rebuild)
            steps.end_phase(counters.phases)

        tel.finish_run(counters)
        return MatchResult(
            matching=matching,
            algorithm=algorithm or options.algorithm_name,
            counters=counters,
            trace=steps.trace,
            breakdown=breakdown,
            frontier_log=frontier_log,
            wall_seconds=time.perf_counter() - start,
        )
