"""Vectorized MS-BFS-Graft engine (parallel semantics + work-trace emission).

This is the engine behind all parallel experiments: it executes the
algorithm with the level-synchronous parallel semantics of the paper's
OpenMP implementation and records one :class:`ParallelRegion` per barrier —
top-down levels, bottom-up levels, the augmentation scan, the grafting
sweep, and the GRAFT statistics pass — which the simulated machine then
schedules onto threads.

Region kinds match the paper's Fig. 6 legend: ``topdown``, ``bottomup``,
``augment``, ``grafting``, ``statistics``. The phase loop itself is
:func:`repro.core.engine_loop.run_phases`; this module supplies its kernels.
"""

from __future__ import annotations

import numpy as np

from repro.core import kernels
from repro.core.engine_loop import PhaseSteps, run_phases
from repro.core.forest import ForestState
from repro.core.options import GraftOptions
from repro.graph.csr import BipartiteCSR
from repro.matching.base import MatchResult, Matching
from repro.parallel.trace import WorkTrace


def run_numpy(
    graph: BipartiteCSR,
    initial: Matching | None,
    options: GraftOptions,
    observer=None,
) -> MatchResult:
    """MS-BFS-Graft with vectorized kernels; emits a work trace.

    ``observer`` optionally attaches a
    :class:`~repro.parallel.shared.BulkAccessObserver` to the forest state,
    so the race detector can audit the kernels' bulk accesses.
    """

    def setup(matching: Matching, counters) -> NumpySteps:
        state = ForestState.for_graph(graph)
        state.observer = observer
        workspace = kernels.KernelWorkspace.for_graph(graph)
        return NumpySteps(graph, matching, options, state, workspace)

    return run_phases("numpy", graph, initial, options, setup)


class NumpySteps(PhaseSteps):
    """The vectorized kernels, plus one work-trace region per barrier."""

    def __init__(
        self,
        graph: BipartiteCSR,
        matching: Matching,
        options: GraftOptions,
        state: ForestState,
        workspace: kernels.KernelWorkspace,
    ) -> None:
        self.graph = graph
        self.matching = matching
        self.state = state
        self.workspace = workspace
        self.check_invariants = options.check_invariants
        self.alpha = options.alpha
        self.trace = WorkTrace() if options.emit_trace else None
        workspace.want_costs = self.trace is not None
        self.frontier = kernels.rebuild_from_unmatched(state, matching)
        self.fresh = True
        """The next level is a fresh phase's first: its frontier is the
        ascending seed list and the whole active set."""
        self.gstats: kernels.GraftStats | None = None

    @property
    def num_unvisited_y(self) -> int:
        return self.state.num_unvisited_y

    @property
    def unvisited_deg(self) -> int:
        return self.state.unvisited_deg

    def topdown(self, frontier: np.ndarray):
        self.fresh = False
        return self._expand(frontier, "topdown")[:2]

    def _expand(self, frontier: np.ndarray, region: str):
        stats = kernels.topdown_level(
            self.graph, self.state, self.matching, frontier, self.workspace,
            region=region,
        )
        if self.trace is not None:
            self.trace.add(
                region,
                stats.item_costs,
                atomics=stats.attempts,
                queue_appends=int(stats.next_frontier.size),
            )
        return stats.next_frontier, stats.edges, stats.claims

    def bottomup(self, frontier: np.ndarray):
        fresh, self.fresh = self.fresh, False
        # A fresh level's forest can be built from either side (see
        # kernels.bottomup_from_frontier); read the frontier's rows when
        # they hold fewer entries than the unvisited rows, by the same test
        # as the "edge" direction rule. A work trace models Algorithm 6's
        # row scan, so a traced run keeps it.
        if (
            fresh
            and self.trace is None
            and int(self.graph.deg_x[frontier].sum()) < self.state.unvisited_deg / self.alpha
        ):
            stats = kernels.bottomup_from_frontier(
                self.graph, self.state, self.matching, frontier, self.workspace
            )
            return stats.next_frontier, stats.edges
        return self._attach(self.state.unvisited_candidates(), "bottomup")[:2]

    def _attach(self, rows: np.ndarray, region: str):
        stats = kernels.bottomup_level(
            self.graph, self.state, self.matching, rows, self.workspace, region=region
        )
        if self.trace is not None:
            self.trace.add(
                region, stats.item_costs, queue_appends=int(stats.next_frontier.size)
            )
        return stats.next_frontier, stats.edges, stats.claims

    def augment(self) -> np.ndarray:
        _, lengths = kernels.augment_all(self.state, self.matching)
        if self.trace is not None and lengths.size:
            self.trace.add("augment", lengths.astype(np.float64), memory_pattern="irregular")
        return lengths

    def partition(self):
        self.gstats = kernels.graft_partition(self.state, tracked=True)
        if self.trace is not None:
            self.trace.add_uniform("statistics", self.graph.n_x + self.graph.n_y, 1.0)
        return self.gstats.active_x_count, int(self.gstats.renewable_y.size)

    def graft(self, top_down: bool):
        if top_down:
            # The tracked partition leaves the active X in tree-join order,
            # so a contested row goes to its shallowest active neighbour.
            return self._expand(self.state.tree_x_parts[0], "grafting")
        return self._attach(self.gstats.renewable_y, "grafting")

    def rebuild(self) -> np.ndarray:
        kernels.reset_rows(self.state, self.gstats.active_y)
        frontier = kernels.rebuild_from_unmatched(self.state, self.matching)
        self.fresh = True
        if self.trace is not None:
            self.trace.add_uniform(
                "grafting", int(self.gstats.active_y.size) + int(frontier.size), 1.0
            )
        return frontier

    def end_phase(self, phase: int) -> None:
        if self.check_invariants:
            from repro.core.invariants import check_all_invariants  # test-only option

            check_all_invariants(self.graph, self.state, self.matching)

    def cover_y(self) -> np.ndarray:
        return self.state.visited != 0
