"""Table II — the input graph suite.

For every suite graph: class, the paper instance it stands in for, vertex
and (directed) edge counts, and the matching number as a fraction of |V| —
computed exactly by running MS-BFS-Graft to optimality and certifying the
result with the König cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.bench.report import format_table
from repro.bench.suite import build_suite
from repro.core.driver import ms_bfs_graft
from repro.matching.verify import verify_maximum


@dataclass(frozen=True)
class Table2Row:
    name: str
    group: str
    paper_counterpart: str
    n: int
    m: int
    avg_degree: float
    maximum_cardinality: int
    matching_fraction: float


@dataclass(frozen=True)
class Table2Result:
    rows: List[Table2Row]

    def render(self) -> str:
        return format_table(
            ["graph", "class", "stands in for", "|V|", "m", "avg deg", "max |M|", "|M| frac"],
            [
                [r.name, r.group, r.paper_counterpart, r.n, r.m,
                 r.avg_degree, r.maximum_cardinality, r.matching_fraction]
                for r in self.rows
            ],
            title="Table II: input graph suite (synthetic stand-ins)",
        )


def run(scale: float = 0.3) -> Table2Result:
    """Build the suite and certify every instance's matching number."""
    rows = []
    for sg in build_suite(scale=scale):
        graph = sg.graph
        result = ms_bfs_graft(graph)
        verify_maximum(graph, result.matching)
        rows.append(
            Table2Row(
                name=sg.name,
                group=sg.group,
                paper_counterpart=sg.paper_counterpart,
                n=graph.num_vertices,
                m=graph.num_directed_edges,
                avg_degree=graph.num_directed_edges / max(graph.num_vertices, 1),
                maximum_cardinality=result.cardinality,
                matching_fraction=result.matching.matching_fraction(),
            )
        )
    return Table2Result(rows=rows)
