"""Fig. 8 — BFS frontier size per level, with and without grafting.

Runs MS-BFS and MS-BFS-Graft on the copapersDBLP stand-in with frontier
recording and reports two consecutive mid-run phases. The paper's shape:
with grafting, a phase *starts* with a large frontier (the grafted
vertices) that shrinks monotonically; without grafting, each phase starts
small (unmatched roots), swells, and shrinks — more levels (sync points)
and more total frontier vertices (work).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.bench.report import format_series
from repro.bench.runner import run_algorithm, suite_initializer
from repro.bench.suite import get_suite_graph


@dataclass(frozen=True)
class Fig8Result:
    graph: str
    phases_shown: List[int]
    graft_levels: List[List[int]]
    nograft_levels: List[List[int]]

    def render(self) -> str:
        series = {}
        for phase, levels in zip(self.phases_shown, self.graft_levels):
            series[f"graft p{phase}"] = levels
        for phase, levels in zip(self.phases_shown, self.nograft_levels):
            series[f"no-graft p{phase}"] = levels
        return format_series(
            series,
            title=f"Fig. 8: frontier sizes per level on {self.graph} (two phases)",
        )


def run(
    scale: float = 0.3, graph_name: str = "copapers-like", seed: int = 0,
    phases: tuple[int, int] = (1, 2),
) -> Fig8Result:
    """Run the Fig. 8 frontier-size experiment."""
    sg = get_suite_graph(graph_name, scale=scale)
    init = suite_initializer(sg.graph, seed=seed)

    def phase_levels(algo: str) -> List[List[int]]:
        from repro.core.driver import ms_bfs_graft

        result = ms_bfs_graft(
            sg.graph,
            init,
            grafting=(algo == "graft"),
            direction_optimizing=False,  # pure frontier dynamics, as Fig. 8
            record_frontiers=True,
        )
        log = result.frontier_log
        out = []
        for phase in phases:
            out.append(log.levels(phase) if phase < log.num_phases else [])
        return out

    return Fig8Result(
        graph=graph_name,
        phases_shown=list(phases),
        graft_levels=phase_levels("graft"),
        nograft_levels=phase_levels("nograft"),
    )
