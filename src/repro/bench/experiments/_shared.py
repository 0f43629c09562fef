"""Helpers shared by the experiment drivers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.bench.runner import run_algorithm, suite_initializer
from repro.bench.suite import SuiteGraph, build_suite
from repro.matching.base import MatchResult
from repro.parallel.cost_model import CostModel, SimulatedTime
from repro.parallel.machine import MachineSpec

DEFAULT_SCALE = 0.3
"""Suite scale used by the default benchmark runs: large enough for the
work distribution to dominate the simulated times, small enough that the
full experiment set finishes in minutes on one core."""


@dataclass
class TrioRun:
    """The three parallel algorithms' results on one suite graph."""

    suite_graph: SuiteGraph
    results: Dict[str, MatchResult]

    def simulate(self, machine: MachineSpec, threads: int) -> Dict[str, SimulatedTime]:
        model = CostModel(machine)
        return {
            name: model.simulate(result.trace, threads)
            for name, result in self.results.items()
            if result.trace is not None
        }


def run_trio(
    suite_graph: SuiteGraph,
    algorithms: tuple[str, ...] = ("ms-bfs-graft", "pothen-fan", "push-relabel"),
    seed: int = 0,
) -> TrioRun:
    """Run the compared algorithms on one graph with a shared initialiser,
    each with the work trace the simulated-time figures read."""
    init = suite_initializer(suite_graph.graph, seed=seed)
    results = {
        name: run_algorithm(name, suite_graph.graph, init, emit_trace=True)
        for name in algorithms
    }
    return TrioRun(suite_graph=suite_graph, results=results)


@dataclass
class SuiteRuns:
    """Trio runs over the whole suite, grouped by class."""

    runs: List[TrioRun] = field(default_factory=list)

    def by_group(self) -> Dict[str, List[TrioRun]]:
        out: Dict[str, List[TrioRun]] = {}
        for run in self.runs:
            out.setdefault(run.suite_graph.group, []).append(run)
        return out


def run_suite_trio(
    scale: float = DEFAULT_SCALE,
    algorithms: tuple[str, ...] = ("ms-bfs-graft", "pothen-fan", "push-relabel"),
    seed: int = 0,
    names: List[str] | None = None,
) -> SuiteRuns:
    """Run the compared algorithms over the whole suite."""
    suite = build_suite(scale=scale, names=names)
    return SuiteRuns(runs=[run_trio(sg, algorithms, seed=seed) for sg in suite])
