"""Per-phase traversal dynamics of MS-BFS vs MS-BFS-Graft.

A fine-grained companion to Figs. 1(b) and 8: for one grafting-heavy graph,
tabulate each phase's traversal work and augmentation count for plain
MS-BFS and for MS-BFS-Graft. The paper's mechanism is directly visible:
without grafting every phase re-pays the forest construction; with grafting
the per-phase traversal work collapses after the first phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.bench.report import format_table
from repro.bench.runner import suite_initializer
from repro.bench.suite import get_suite_graph
from repro.core.driver import ms_bfs_graft
from repro.errors import BenchmarkError
from repro.instrument.phases import PhaseProfile, phase_profile


@dataclass(frozen=True)
class PhaseDynamicsResult:
    graph: str
    graft: PhaseProfile
    nograft: PhaseProfile

    def render(self) -> str:
        rows: List[List[object]] = []
        length = max(self.graft.num_phases, self.nograft.num_phases)
        for i in range(length):
            g = self.graft.phases[i] if i < self.graft.num_phases else None
            n = self.nograft.phases[i] if i < self.nograft.num_phases else None
            rows.append(
                [
                    i,
                    g.traversal_work if g else "",
                    g.augmentations if g else "",
                    ("graft" if g.used_graft_branch else "rebuild") if g else "",
                    n.traversal_work if n else "",
                    n.augmentations if n else "",
                ]
            )
        table = format_table(
            ["phase", "graft: traversal", "augs", "branch",
             "no-graft: traversal", "augs"],
            rows,
            title=f"Per-phase dynamics on {self.graph}",
        )
        saved = 1 - self.graft.total_traversal_work() / max(
            self.nograft.total_traversal_work(), 1e-12
        )
        return table + f"\n\ngrafting saves {saved:.0%} of traversal work overall"


def run(
    scale: float = 0.2, graph_name: str = "copapers-like", seed: int = 0
) -> PhaseDynamicsResult:
    """Profile both variants phase by phase on one suite graph."""
    sg = get_suite_graph(graph_name, scale=scale)
    init = suite_initializer(sg.graph, seed=seed)
    graft = ms_bfs_graft(sg.graph, init, direction_optimizing=False, emit_trace=True)
    nograft = ms_bfs_graft(sg.graph, init, direction_optimizing=False, grafting=False,
                           emit_trace=True)
    if graft.cardinality != nograft.cardinality:
        raise BenchmarkError(
            f"{graph_name}: grafting found |M|={graft.cardinality}, "
            f"no grafting {nograft.cardinality}"
        )
    return PhaseDynamicsResult(
        graph=graph_name,
        graft=phase_profile(graft.trace),
        nograft=phase_profile(nograft.trace),
    )
