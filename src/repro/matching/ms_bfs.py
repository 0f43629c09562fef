"""Plain multi-source BFS matching (Algorithm 2) — MS-BFS-Graft's ancestor.

Delegates to the MS-BFS-Graft driver with grafting and direction
optimization disabled, which reduces Algorithm 3 to Algorithm 2 exactly:
every phase builds the alternating forest from scratch with top-down BFS,
augments, and resets the traversed vertices. Keeping one code path makes
the Fig. 7 "contributions" comparison apples-to-apples.
"""

from __future__ import annotations

from repro.graph.csr import BipartiteCSR
from repro.matching.base import MatchResult, Matching


def ms_bfs(
    graph: BipartiteCSR,
    initial: Matching | None = None,
    *,
    engine: str = "auto",
    record_frontiers: bool = False,
    emit_trace: bool = False,
    deadline=None,
    phase_hook=None,
    telemetry=None,
    reorder: str = "none",
    reorder_plan=None,
    reorder_layout=None,
) -> MatchResult:
    """Maximum matching by multi-source BFS without tree grafting."""
    # Imported lazily: repro.core depends on repro.matching.base, and a
    # module-level import here would close an import cycle through the
    # repro.matching package __init__.
    from repro.core.driver import ms_bfs_graft

    return ms_bfs_graft(
        graph,
        initial,
        direction_optimizing=False,
        grafting=False,
        engine=engine,
        record_frontiers=record_frontiers,
        emit_trace=emit_trace,
        deadline=deadline,
        phase_hook=phase_hook,
        telemetry=telemetry,
        reorder=reorder,
        reorder_plan=reorder_plan,
        reorder_layout=reorder_layout,
    )
