"""Section V-B — variation in parallel runtimes (psi = 100 * sigma / mu).

On real hardware, thread scheduling changes vertex processing order between
runs, which changes runtimes. Our simulated machine is deterministic for a
fixed input, so the reproduction injects the same perturbation at its
source: each of the 10 runs relabels the graph with a random vertex
permutation (work content identical, processing order different) and uses a
different initialiser seed, then simulates the 40-thread runtime.

Paper result: average psi of 6% for MS-BFS-Graft, 10% for PR, 17% for PF —
the coarse-grained DFS decomposition of PF is the most order-sensitive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.bench.report import format_table
from repro.bench.runner import run_algorithm, suite_initializer
from repro.bench.suite import build_suite
from repro.graph.permute import permute
from repro.instrument.rates import parallel_sensitivity
from repro.parallel.cost_model import CostModel
from repro.parallel.machine import MIRASOL, MachineSpec
from repro.util.rng import derive_seed
from repro.util.stats import mean

ALGOS = ("ms-bfs-graft", "pothen-fan", "push-relabel")


@dataclass(frozen=True)
class SensitivityRow:
    graph: str
    group: str
    psi: Dict[str, float]


@dataclass(frozen=True)
class SensitivityResult:
    rows: List[SensitivityRow]
    runs: int
    machine: str
    threads: int

    def average_psi(self) -> Dict[str, float]:
        return {a: mean([r.psi[a] for r in self.rows]) for a in ALGOS}

    def render(self) -> str:
        table = format_table(
            ["graph", "class", *[f"psi({a}) %" for a in ALGOS]],
            [[r.graph, r.group, *[r.psi[a] for a in ALGOS]] for r in self.rows],
            title=(
                f"Section V-B: parallel sensitivity over {self.runs} permuted runs "
                f"({self.threads} threads of {self.machine}, simulated)"
            ),
        )
        avg = self.average_psi()
        return table + "\n\naverage psi: " + ", ".join(
            f"{a}={avg[a]:.1f}%" for a in ALGOS
        )


def run(
    scale: float = 0.2,
    runs: int = 10,
    machine: MachineSpec = MIRASOL,
    threads: int = 40,
    seed: int = 0,
    names: List[str] | None = None,
) -> SensitivityResult:
    """Run the Section V-B sensitivity experiment."""
    model = CostModel(machine)
    rows: List[SensitivityRow] = []
    for sg in build_suite(scale=scale, names=names):
        times: Dict[str, List[float]] = {a: [] for a in ALGOS}
        for run_idx in range(runs):
            run_seed = derive_seed(seed, run_idx)
            shuffled, _, _ = permute(sg.graph, seed=run_seed)
            init = suite_initializer(shuffled, seed=run_seed)
            for algo in ALGOS:
                result = run_algorithm(algo, shuffled, init, emit_trace=True)
                times[algo].append(model.simulate(result.trace, threads).seconds)
        rows.append(
            SensitivityRow(
                graph=sg.name,
                group=sg.group,
                psi={a: parallel_sensitivity(v) for a, v in times.items()},
            )
        )
    return SensitivityResult(rows=rows, runs=runs, machine=machine.name, threads=threads)
