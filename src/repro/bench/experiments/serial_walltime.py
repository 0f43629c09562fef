"""Measured serial wall-clock comparison (companion to Fig. 3's serial bars).

Everything else in the harness prices *work traces* on a simulated machine;
this experiment measures actual CPython wall time of the serial algorithms
on this host. Absolute times are CPython times (orders of magnitude above
the paper's C++), but the *relative* ordering of the pure-Python loop
implementations (PF, PR, SS, HK) is a real measurement; the numpy-kernel
MS-BFS-Graft is reported separately because vectorization gives it a
language-level advantage unrelated to the algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.bench.report import format_table
from repro.bench.runner import run_algorithm, suite_initializer
from repro.bench.suite import build_suite
from repro.errors import BenchmarkError
from repro.util.stats import geometric_mean

LOOP_ALGOS = ("pothen-fan", "push-relabel", "hopcroft-karp", "ss-bfs")
KERNEL_ALGOS = ("ms-bfs-graft",)


@dataclass(frozen=True)
class SerialWalltimeRow:
    graph: str
    group: str
    seconds: Dict[str, float]
    cardinality: int


@dataclass(frozen=True)
class SerialWalltimeResult:
    rows: List[SerialWalltimeRow]
    repeats: int

    def geomean_ratio(self, versus: str, baseline: str = "pothen-fan") -> float:
        """Geometric-mean wall-time ratio baseline / versus."""
        return geometric_mean(
            [row.seconds[baseline] / row.seconds[versus] for row in self.rows]
        )

    def render(self) -> str:
        algos = [*LOOP_ALGOS, *KERNEL_ALGOS]
        table = format_table(
            ["graph", "class", *[f"{a} ms" for a in algos], "|M|"],
            [
                [r.graph, r.group, *[r.seconds[a] * 1e3 for a in algos], r.cardinality]
                for r in self.rows
            ],
            title=(
                "Measured serial wall clock (CPython, best of "
                f"{self.repeats}; ms-bfs-graft uses numpy kernels)"
            ),
        )
        return table


def run(scale: float = 0.2, seed: int = 0, repeats: int = 3) -> SerialWalltimeResult:
    """Measure serial wall times over the suite (best-of-``repeats``)."""
    rows: List[SerialWalltimeRow] = []
    for sg in build_suite(scale=scale):
        init = suite_initializer(sg.graph, seed=seed)
        seconds: Dict[str, float] = {}
        cardinality = None
        for algo in (*LOOP_ALGOS, *KERNEL_ALGOS):
            best = float("inf")
            for _ in range(repeats):
                result = run_algorithm(algo, sg.graph, init)
                best = min(best, result.wall_seconds)
                if cardinality is None:
                    cardinality = result.cardinality
                if result.cardinality != cardinality:
                    raise BenchmarkError(
                        f"{sg.name}: {algo} found |M|={result.cardinality}, "
                        f"expected {cardinality}"
                    )
            seconds[algo] = best
        rows.append(
            SerialWalltimeRow(
                graph=sg.name, group=sg.group, seconds=seconds, cardinality=cardinality
            )
        )
    return SerialWalltimeResult(rows=rows, repeats=repeats)
