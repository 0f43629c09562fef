"""MS-BFS-Graft executed on the interleaved thread simulator.

Every ``parallel for`` of Algorithm 3 runs as simulated threads whose steps
interleave in a seeded random order (:class:`InterleavedSimulator`), with
``visited`` claims going through a simulated compare-and-swap and ``leaf``
updates left racy on purpose — the paper's benign race. Different seeds
reach different (all correct) executions; the race-semantics tests sweep
seeds and assert that the final matching is always maximum and the forest
invariants always hold.

Item programs touch shared state *only* through
:class:`~repro.parallel.atomics.AtomicArray` and
:class:`~repro.parallel.shared.SharedArray` wrappers (lint rule REP001
enforces this), so an attached
:class:`~repro.parallel.shared.RegionMonitor` — e.g. the dynamic race
detector in :mod:`repro.analysis.racecheck` — observes every shared
access with thread/step/region attribution.

This engine exists to *validate concurrency semantics*, not for speed: it
steps a generator per traversed edge, so keep graphs small (tests use a few
hundred vertices).
"""

from __future__ import annotations

from typing import Generator, Iterable, List, Optional

import numpy as np

from repro.core import kernels
from repro.core.engine_loop import PhaseSteps, run_phases
from repro.core.forest import ForestState
from repro.core.options import GraftOptions
from repro.errors import InvariantViolation, ReproError
from repro.graph.csr import BipartiteCSR
from repro.matching._common import adjacency_lists
from repro.matching.base import UNMATCHED, MatchResult, Matching
from repro.parallel.atomics import AtomicArray
from repro.parallel.shared import RegionMonitor, SharedArray
from repro.parallel.simulator import InterleavedSimulator, SimThreadState
from repro.util.rng import SeedLike

NON_ATOMIC_VISITED = "non-atomic-visited"
"""Fault-injection switch: replace the CAS ``visited`` claim with a plain
check-then-act store, re-creating exactly the synchronisation bug the
paper's atomic claim prevents (trees stop being vertex-disjoint)."""

KNOWN_FAULTS = frozenset({NON_ATOMIC_VISITED})


def run_interleaved(
    graph: BipartiteCSR,
    initial: Matching | None,
    options: GraftOptions,
    *,
    threads: int = 4,
    seed: SeedLike = 0,
    monitor: Optional[RegionMonitor] = None,
    fault_injection: Iterable[str] = (),
    max_phases: Optional[int] = None,
) -> MatchResult:
    """MS-BFS-Graft under simulated concurrent execution.

    ``monitor`` (optional) observes every shared access and is notified
    after each barrier and phase; ``fault_injection`` enables named
    synchronisation faults (see :data:`KNOWN_FAULTS`); ``max_phases``
    bounds the phase loop so fault-corrupted runs terminate with
    :class:`~repro.errors.ReproError` instead of spinning.
    """
    faults = frozenset(fault_injection)
    unknown = faults - KNOWN_FAULTS
    if unknown:
        raise ReproError(
            f"unknown fault injection(s) {sorted(unknown)}; known: {sorted(KNOWN_FAULTS)}"
        )

    def setup(matching: Matching, counters) -> _InterleavedSteps:
        sim = InterleavedSimulator(threads, seed, faults=faults)
        return _InterleavedSteps(graph, matching, options, sim, monitor, max_phases)

    return run_phases(
        "interleaved", graph, initial, options, setup,
        algorithm=options.algorithm_name + "-interleaved",
    )


class _InterleavedSteps(PhaseSteps):
    """Every ``parallel for`` runs as simulated threads on ``sim``."""

    def __init__(
        self,
        graph: BipartiteCSR,
        matching: Matching,
        options: GraftOptions,
        sim: InterleavedSimulator,
        monitor: Optional[RegionMonitor],
        max_phases: Optional[int],
    ) -> None:
        self.graph = graph
        self.matching = matching
        self.sim = sim
        self.monitor = monitor
        self.max_phases = max_phases
        self.check_invariants = options.check_invariants
        self.state = state = ForestState.for_graph(graph)
        x_ptr, x_adj, y_ptr, y_adj = adjacency_lists(graph)
        # Shared-state views for the item programs. Serial code between
        # regions keeps using the raw arrays; programs go through these
        # wrappers so the monitor sees every access.
        visited = AtomicArray(state.visited, name="visited", observer=monitor)
        sh_parent = SharedArray(state.parent, "parent", monitor)
        sh_root_x = SharedArray(state.root_x, "root_x", monitor)
        sh_root_y = SharedArray(state.root_y, "root_y", monitor)
        sh_leaf = SharedArray(state.leaf, "leaf", monitor)
        sh_mate_y = SharedArray(matching.mate_y, "mate_y", monitor)
        if monitor is not None:
            monitor.bind(sim=sim, graph=graph, state=state, matching=matching)
        self.edges = 0
        state.attach_degrees(graph.deg_y)
        # Initial frontier: all unmatched X vertices become tree roots
        # (seeds the state's persistent unmatched-X list).
        self.frontier = state.refresh_seeds(matching)
        state.root_x[self.frontier] = self.frontier
        state.leaf[self.frontier] = UNMATCHED
        self.active_y = self.renewable_y = self.frontier[:0]

        def topdown_program(x: int, ts: SimThreadState) -> Generator[None, None, None]:
            rx = sh_root_x.load(x)
            if rx == UNMATCHED or sh_leaf.load(rx) != UNMATCHED:
                return
            for i in range(x_ptr[x], x_ptr[x + 1]):
                yield  # one interleaving point per scanned edge
                self.edges += 1
                if sh_leaf.load(rx) != UNMATCHED:
                    break  # racy read — may miss a concurrent leaf write; benign
                y = x_adj[i]
                if visited.load(y):
                    continue  # cheap pre-check before the atomic (Section III-B)
                yield  # check-then-act window: another thread may claim y here
                if NON_ATOMIC_VISITED in sim.faults:
                    # FAULT: plain store instead of CAS — the pre-check load above
                    # and this write no longer form an atomic claim, so two
                    # threads can both "win" y.
                    visited.store(y, 1)
                elif not visited.compare_and_swap(y, 0, 1):
                    continue  # lost the claim race
                # The claim won: this thread owns y's pointers.
                sh_parent.store(y, x)
                sh_root_y.store(y, rx)
                state.count_visit(y)
                mate = sh_mate_y.load(y)
                if mate != UNMATCHED:
                    sh_root_x.store(mate, rx)
                    ts.local["queue"].append(mate)
                else:
                    sh_leaf.store(rx, y)  # benign race: last concurrent writer wins

        def bottomup_program(y: int, ts: SimThreadState) -> Generator[None, None, None]:
            for i in range(y_ptr[y], y_ptr[y + 1]):
                yield
                self.edges += 1
                x = y_adj[i]
                rx = sh_root_x.load(x)  # racy: may see a concurrently grafted tree
                if rx == UNMATCHED or sh_leaf.load(rx) != UNMATCHED:
                    continue
                # y is owned by this thread: plain store, no atomic needed.
                if not visited.load(y):
                    state.count_visit(y)
                visited.store(y, 1)
                sh_parent.store(y, x)
                sh_root_y.store(y, rx)
                mate = sh_mate_y.load(y)
                if mate != UNMATCHED:
                    sh_root_x.store(mate, rx)
                    ts.local["queue"].append(mate)
                else:
                    sh_leaf.store(rx, y)
                break

        self.topdown_program = topdown_program
        self.bottomup_program = bottomup_program

    @property
    def num_unvisited_y(self) -> int:
        return self.state.num_unvisited_y

    @property
    def unvisited_deg(self) -> int:
        return self.state.unvisited_deg

    def _run_region(self, items: np.ndarray, program):
        """One ``parallel for`` over ``items``; returns
        ``(next_frontier, edges, claims)`` with the per-thread queues merged."""
        before, edges_before = self.state.num_unvisited_y, self.edges
        thread_states = self.sim.parallel_for(
            items,
            program,
            on_thread_start=lambda ts: ts.local.__setitem__("queue", []),
        )
        merged: List[int] = []
        for ts in thread_states:
            merged.extend(ts.local["queue"])
        if self.monitor is not None:
            self.monitor.after_barrier()
        return (
            np.asarray(merged, dtype=np.int64),
            self.edges - edges_before,
            before - self.state.num_unvisited_y,
        )

    def topdown(self, frontier: np.ndarray):
        return self._run_region(frontier, self.topdown_program)

    def bottomup(self, frontier: np.ndarray):
        return self._run_region(self.state.unvisited_candidates(), self.bottomup_program)

    def augment(self) -> List[int]:
        """Flip the discovered paths (vertex-disjoint; order is irrelevant)."""
        mate_x, mate_y = self.matching.mate_x, self.matching.mate_y
        parent, leaf = self.state.parent, self.state.leaf
        path_bound = 2 * (self.graph.n_x + self.graph.n_y) + 1
        lengths: List[int] = []
        for x0 in np.flatnonzero((mate_x == UNMATCHED) & (leaf != UNMATCHED)):
            y = int(leaf[x0])
            length = 0
            while True:
                if length > path_bound:
                    raise InvariantViolation(
                        f"augmenting path from root {int(x0)} exceeds {path_bound} "
                        f"edges; parent/mate pointers form a cycle"
                    )
                x = int(parent[y])
                prev_mate = int(mate_x[x])
                mate_x[x] = y
                mate_y[y] = x
                length += 1
                if prev_mate == UNMATCHED:
                    break
                y = prev_mate
                length += 1
            lengths.append(length)
        return lengths

    def partition(self):
        state = self.state
        renewable_x = np.flatnonzero(state.renewable_x_mask())
        state.root_x[renewable_x] = UNMATCHED
        active_x_count = int(np.count_nonzero(state.root_x != UNMATCHED))
        self.active_y = np.flatnonzero(state.active_y_mask())
        self.renewable_y = np.flatnonzero(state.renewable_y_mask())
        return active_x_count, int(self.renewable_y.size)

    def graft(self):
        # Serial recycling goes through the state helpers so the packed
        # mirror, candidate list, and direction counters stay exact.
        kernels.reset_rows(self.state, self.renewable_y)
        return self._run_region(self.renewable_y, self.bottomup_program)

    def rebuild(self) -> np.ndarray:
        kernels.reset_rows(self.state, self.renewable_y)
        kernels.reset_rows(self.state, self.active_y)
        return kernels.rebuild_from_unmatched(self.state, self.matching)

    def end_phase(self, phase: int) -> None:
        if self.check_invariants:
            self.state.check_invariants(self.graph, self.matching)
        if self.monitor is not None:
            self.monitor.after_phase()
        if self.max_phases is not None and phase >= self.max_phases:
            raise ReproError(
                f"phase limit {self.max_phases} exceeded; the run is not converging "
                f"(possible state corruption from fault injection)"
            )
