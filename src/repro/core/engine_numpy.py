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
    """The vectorized kernels, plus one work-trace region per barrier.

    The level dispatch (:meth:`topdown_level`, :meth:`bottomup_level`) is
    the seam the mp engine overrides to scatter heavy levels over its
    worker pool; everything else, trace emission included, is shared.
    """

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
        self.trace = WorkTrace() if options.emit_trace else None
        workspace.want_costs = self.trace is not None
        state.attach_degrees(graph.deg_y)
        self.frontier = kernels.rebuild_from_unmatched(state, matching)
        self.gstats: kernels.GraftStats | None = None

    @property
    def num_unvisited_y(self) -> int:
        return self.state.num_unvisited_y

    @property
    def unvisited_deg(self) -> int:
        return self.state.unvisited_deg

    def topdown_level(self, frontier: np.ndarray) -> kernels.LevelStats:
        return kernels.topdown_level(
            self.graph, self.state, self.matching, frontier, self.workspace
        )

    def bottomup_level(self, rows: np.ndarray, region: str) -> kernels.LevelStats:
        return kernels.bottomup_level(
            self.graph, self.state, self.matching, rows, self.workspace, region=region
        )

    def topdown(self, frontier: np.ndarray):
        stats = self.topdown_level(frontier)
        if self.trace is not None:
            self.trace.add(
                "topdown",
                stats.item_costs,
                atomics=stats.attempts,
                queue_appends=int(stats.next_frontier.size),
            )
        return stats.next_frontier, stats.edges, stats.claims

    def bottomup(self, frontier: np.ndarray):
        return self._attach(self.state.unvisited_candidates(), "bottomup")

    def _attach(self, rows: np.ndarray, region: str):
        stats = self.bottomup_level(rows, region)
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

    def graft(self):
        return self._attach(self.gstats.renewable_y, "grafting")

    def rebuild(self) -> np.ndarray:
        kernels.reset_rows(self.state, self.gstats.active_y)
        frontier = kernels.rebuild_from_unmatched(self.state, self.matching)
        if self.trace is not None:
            self.trace.add_uniform(
                "grafting", int(self.gstats.active_y.size) + int(frontier.size), 1.0
            )
        return frontier

    def end_phase(self, phase: int) -> None:
        if self.check_invariants:
            self.state.check_invariants(self.graph, self.matching)
