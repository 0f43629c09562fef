"""Ablations of the design choices DESIGN.md calls out.

* :func:`alpha_sweep` — the single alpha knob controls both the top-down /
  bottom-up switch and the grafting profitability test (Section III-B says
  alpha ~ 5 works best);
* :func:`initializer_comparison` — none vs greedy vs serial Karp-Sipser vs
  parallel-round Karp-Sipser, and how much work the maximum-matching phase
  has left to do after each;
* :func:`queue_capacity_sweep` — the private-queue flush amortisation of
  the Graph500 scheme: simulated 40-thread time as a function of queue
  capacity (capacity 1 = every append is an atomic on the shared queue).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List

from repro.bench.report import format_table
from repro.bench.runner import suite_initializer
from repro.bench.suite import get_suite_graph
from repro.core.driver import ms_bfs_graft
from repro.errors import BenchmarkError
from repro.matching.greedy import greedy_matching
from repro.matching.karp_sipser import karp_sipser
from repro.parallel.cost_model import CostModel
from repro.parallel.machine import MIRASOL, MachineSpec


@dataclass(frozen=True)
class AlphaSweepResult:
    rows: List[List[object]]

    def render(self) -> str:
        return format_table(
            ["graph", "alpha", "edges traversed", "phases", "bottomup levels",
             "grafts", "sim 40t (ms)"],
            self.rows,
            title="Ablation: alpha threshold sweep (direction switch + graft test)",
        )


def alpha_sweep(
    scale: float = 0.2,
    alphas: tuple[float, ...] = (1.0, 2.0, 5.0, 10.0, 100.0),
    names: tuple[str, ...] = ("kkt-like", "copapers-like", "wikipedia-like"),
    machine: MachineSpec = MIRASOL,
    seed: int = 0,
) -> AlphaSweepResult:
    """Sweep the alpha threshold on a suite subset."""
    model = CostModel(machine)
    rows: List[List[object]] = []
    for name in names:
        sg = get_suite_graph(name, scale=scale)
        init = suite_initializer(sg.graph, seed=seed)
        for alpha in alphas:
            result = ms_bfs_graft(sg.graph, init, alpha=alpha, emit_trace=True)
            sim = model.simulate(result.trace, 40)
            rows.append(
                [name, alpha, result.counters.edges_traversed, result.counters.phases,
                 result.counters.bottomup_steps, result.counters.grafts,
                 sim.seconds * 1e3]
            )
    return AlphaSweepResult(rows=rows)


@dataclass(frozen=True)
class InitializerResult:
    rows: List[List[object]]

    def render(self) -> str:
        return format_table(
            ["graph", "initialiser", "init |M|", "max |M|", "deficit",
             "max-phase edges", "phases"],
            self.rows,
            title="Ablation: initial matching quality vs maximum-matching work",
        )


def initializer_comparison(
    scale: float = 0.2,
    names: tuple[str, ...] = ("kkt-like", "rmat", "wikipedia-like"),
    seed: int = 0,
) -> InitializerResult:
    """Compare initial-matching quality against remaining work."""
    initializers = {
        "none": lambda g: None,
        "greedy": lambda g: greedy_matching(g).matching,
        "karp-sipser": lambda g: karp_sipser(g, seed=seed).matching,
        "karp-sipser-parallel": lambda g: suite_initializer(g, seed=seed),
    }
    rows: List[List[object]] = []
    for name in names:
        sg = get_suite_graph(name, scale=scale)
        for init_name, init_fn in initializers.items():
            init = init_fn(sg.graph)
            init_card = init.cardinality if init is not None else 0
            result = ms_bfs_graft(sg.graph, init)
            rows.append(
                [name, init_name, init_card, result.cardinality,
                 result.cardinality - init_card,
                 result.counters.edges_traversed, result.counters.phases]
            )
    return InitializerResult(rows=rows)


@dataclass(frozen=True)
class DirectionStrategyResult:
    rows: List[List[object]]

    def render(self) -> str:
        return format_table(
            ["graph", "strategy", "edges traversed", "topdown levels",
             "bottomup levels", "sim 40t (ms)"],
            self.rows,
            title="Ablation: direction-switch strategy (vertex counts vs edge counts)",
        )


def direction_strategy_comparison(
    scale: float = 0.2,
    names: tuple[str, ...] = ("kkt-like", "rmat", "copapers-like", "wikipedia-like"),
    machine: MachineSpec = MIRASOL,
    seed: int = 0,
) -> DirectionStrategyResult:
    """The paper's vertex-count rule vs Beamer's edge-count rule."""
    model = CostModel(machine)
    rows: List[List[object]] = []
    for name in names:
        sg = get_suite_graph(name, scale=scale)
        init = suite_initializer(sg.graph, seed=seed)
        baseline = None
        for strategy in ("vertex", "edge"):
            result = ms_bfs_graft(sg.graph, init, direction_strategy=strategy,
                                  emit_trace=True)
            if baseline is None:
                baseline = result.cardinality
            if result.cardinality != baseline:
                raise BenchmarkError(
                    f"{name}: {strategy} rule found |M|={result.cardinality}, "
                    f"vertex rule {baseline}"
                )
            sim = model.simulate(result.trace, 40)
            rows.append(
                [name, strategy, result.counters.edges_traversed,
                 result.counters.topdown_steps, result.counters.bottomup_steps,
                 sim.seconds * 1e3]
            )
    return DirectionStrategyResult(rows=rows)


@dataclass(frozen=True)
class QueueSweepResult:
    rows: List[List[object]]

    def render(self) -> str:
        return format_table(
            ["graph", "queue capacity", "sim 40t (ms)", "atomic share"],
            self.rows,
            title="Ablation: private-queue capacity (Graph500 omp-csr scheme)",
        )


def queue_capacity_sweep(
    scale: float = 0.2,
    capacities: tuple[int, ...] = (1, 16, 256, 1024, 8192),
    names: tuple[str, ...] = ("kkt-like", "copapers-like"),
    machine: MachineSpec = MIRASOL,
    seed: int = 0,
) -> QueueSweepResult:
    """Sweep the private-queue capacity of the machine model."""
    rows: List[List[object]] = []
    for name in names:
        sg = get_suite_graph(name, scale=scale)
        init = suite_initializer(sg.graph, seed=seed)
        result = ms_bfs_graft(sg.graph, init, emit_trace=True)
        for capacity in capacities:
            spec = replace(machine, queue_capacity=capacity)
            sim = CostModel(spec).simulate(result.trace, 40)
            rows.append(
                [name, capacity, sim.seconds * 1e3,
                 f"{sim.atomic_seconds / sim.seconds:.1%}"]
            )
    return QueueSweepResult(rows=rows)
