"""The MS-BFS-Graft phase loop (Algorithm 3), written once.

The python, numpy and interleaved engines all run through
:func:`run_phases`. An engine hands the driver a :class:`PhaseSteps` object
holding its kernels; the driver owns the control flow around them: the run
span and ``setup`` step, the phase counter and ``options.begin_phase``, the
frontier log, the alpha direction rule (``vertex`` and ``edge``), the level,
step, edge and claim counts, the stop when a phase augments nothing, the
alpha graft-or-rebuild test, and the ``MatchResult``.

Each fact is counted once, in the run's own record (``Counters`` and the
``FrontierLog``, plus the few facts ``Counters`` lacks as locals), and
:meth:`~repro.telemetry.session.Telemetry.finish_run` mirrors the record into
the metrics registry when the run ends, however it ends.

The result's matching carries the Y side of the final forest as
``cover_y``. The last phase augments nothing, so every tree is active and
has been grown until its frontier emptied: its visited Y are exactly the
Y reachable by alternating paths from the free X, the Y side of a König
cover. :func:`~repro.matching.verify.verify_maximum` checks that cover
instead of searching again, and falls back to its own sweep if it fails.

Each step is timed once: one ``perf_counter`` pair around the step's
telemetry span feeds ``MatchResult.breakdown``, so the breakdown keys are
exactly the step spans the run emitted.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Tuple

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
      (Algorithms 4 and 6); return ``(next_frontier, edges)``. Each claim
      of the level must lower ``num_unvisited_y`` by one: the driver
      counts a level's claims as that drop;
    * ``augment()`` — flip every discovered path; return their lengths;
    * ``partition()`` — the GRAFT statistics pass; return
      ``(active_x_count, renewable_y_count)``;
    * ``graft(top_down)`` — re-attach the renewable Y vertices to active
      trees, either by scanning the renewable rows for an active neighbour
      (bottom-up, Algorithm 7) or by expanding the active X vertices
      (top-down); return ``(next_frontier, edges, grafted)``, where
      ``grafted`` is the engine's own graft count;
    * ``rebuild()`` — destroy the active trees and re-root every unmatched
      X vertex; return the new frontier;
    * ``cover_y()`` — after the last phase, the visited flags as a boolean
      mask over Y (or ``None`` from an engine that cannot vouch for them).
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
            frontier_log = FrontierLog()
            steps = make_steps(matching, counters)
            frontier = steps.frontier
        breakdown: Dict[str, float] = {}

        def timed(name, kernel, *args, **attributes):
            t0 = time.perf_counter()
            with tel.step(name, **attributes):
                out = kernel(*args)
            breakdown[name] = breakdown.get(name, 0.0) + time.perf_counter() - t0
            return out

        alpha = options.alpha
        deg_x = graph.deg_x
        edge_rule = options.direction_strategy == "edge"
        # What the run's record lacks for the telemetry mirror: visited
        # claims, the unvisited count after the last level and one
        # ``(direction, edges)`` pair per graft sweep.
        claims = 0
        remaining = None
        sweeps: List[Tuple[str, int]] = []
        completed = False
        try:
            while True:
                counters.phases += 1
                options.begin_phase(counters.phases)
                frontier_log.start_phase()

                # --- Step 1: grow the alternating BFS forest --------------- #
                while len(frontier):
                    unvisited = steps.num_unvisited_y
                    if unvisited == 0:
                        # No undiscovered Y vertex remains: the frontier
                        # cannot make progress or find an augmenting path.
                        frontier = frontier[:0]
                        break
                    size = len(frontier)
                    frontier_log.record(size)
                    counters.bfs_levels += 1
                    if not options.direction_optimizing:
                        top_down = True
                    elif edge_rule:
                        # unvisited_deg is kept as a running sum, so the
                        # switch costs O(|frontier|), not an O(n_y) sum.
                        top_down = int(deg_x[frontier].sum()) < steps.unvisited_deg / alpha
                    else:
                        top_down = size < unvisited / alpha
                    if top_down:
                        counters.topdown_steps += 1
                        frontier, edges = timed("topdown", steps.topdown, frontier)
                    else:
                        counters.bottomup_steps += 1
                        frontier, edges = timed("bottomup", steps.bottomup, frontier)
                    counters.edges_traversed += edges
                    # Every claim flips one visited flag, so a level's claims
                    # are the drop in the unvisited count across it.
                    remaining = steps.num_unvisited_y
                    claims += unvisited - remaining

                # --- Step 2: augment along the discovered paths ------------ #
                lengths = timed("augment", steps.augment)
                counters.record_paths(lengths)
                if len(lengths) == 0:
                    break  # no augmenting path in this phase: the matching is maximum

                # --- Step 3: graft or rebuild (Algorithm 7) ---------------- #
                active_x, renewable_y = timed("statistics", steps.partition)
                if options.grafting and active_x > renewable_y / alpha:
                    # Graft from the smaller side. Every unvisited Y next to
                    # an active X is renewable (the phase exhausted the
                    # active trees' neighbourhoods), so both sweeps claim the
                    # same rows and differ only in the parent each row gets.
                    top_down = options.direction_optimizing and active_x < renewable_y
                    direction = "topdown" if top_down else "bottomup"
                    frontier, edges, grafted = timed(
                        "grafting", steps.graft, top_down, direction=direction
                    )
                    counters.edges_traversed += edges
                    counters.grafts += grafted
                    sweeps.append((direction, edges))
                else:
                    counters.tree_rebuilds += 1
                    frontier = timed("grafting", steps.rebuild)
                steps.end_phase(counters.phases)
            completed = True
        finally:
            tel.finish_run(
                counters, frontier_log, claims, remaining, sweeps, completed=completed
            )

        matching.cover_y = steps.cover_y()
        return MatchResult(
            matching=matching,
            algorithm=algorithm or options.algorithm_name,
            counters=counters,
            trace=steps.trace,
            breakdown=breakdown,
            frontier_log=frontier_log,
            wall_seconds=time.perf_counter() - start,
        )
