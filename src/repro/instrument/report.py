"""Human-readable run reports.

Collects everything a :class:`~repro.matching.base.MatchResult` knows —
cardinality, the paper's Fig. 1 counters, the wall-clock step breakdown,
and simulated parallel times on a machine (from the run's work trace; a
run without one says so) — into one formatted block. Used by
``repro-match run --report`` and handy in notebooks. :func:`batch_report`
renders the batch service's per-job summary table the same way.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.bench.report import format_table
from repro.matching.base import MatchResult
from repro.parallel.cost_model import CostModel
from repro.parallel.machine import MIRASOL, MachineSpec


def run_report(
    result: MatchResult,
    *,
    machine: Optional[MachineSpec] = MIRASOL,
    threads: int = 40,
) -> str:
    """Multi-line report for one algorithm run."""
    c = result.counters
    lines = [
        f"algorithm        : {result.algorithm}",
        f"|M|              : {result.cardinality:,}"
        f"  ({result.matching.matching_fraction():.4f} of |V|)",
        f"edges traversed  : {c.edges_traversed:,}",
        f"phases           : {c.phases}   (BFS levels: {c.bfs_levels};"
        f" top-down {c.topdown_steps}, bottom-up {c.bottomup_steps})",
        f"augmentations    : {c.augmentations}"
        f"  (avg path {c.avg_augmenting_path_length:.2f} edges,"
        f" max {c.max_augmenting_path_length})",
        f"grafted vertices : {c.grafts}   (tree rebuilds: {c.tree_rebuilds})",
        f"wall time        : {result.wall_seconds * 1e3:.2f} ms",
    ]
    if result.breakdown:
        total = sum(result.breakdown.values()) or 1.0
        parts = ", ".join(
            f"{name} {seconds / total:.0%}"
            for name, seconds in sorted(
                result.breakdown.items(), key=lambda kv: -kv[1]
            )
        )
        lines.append(f"step breakdown   : {parts}")
    if machine is not None and result.trace is None:
        lines.append("simulated        : n/a (no work trace)")
    elif machine is not None:
        model = CostModel(machine)
        serial = model.simulate(result.trace, 1)
        parallel = model.simulate(result.trace, threads)
        lines.append(
            f"simulated {machine.name:8s}: {serial.seconds * 1e3:.3f} ms serial, "
            f"{parallel.seconds * 1e3:.3f} ms @ {threads} threads "
            f"({serial.seconds / max(parallel.seconds, 1e-12):.1f}x)"
        )
        fractions = parallel.breakdown_fractions()
        if fractions:
            parts = ", ".join(
                f"{k} {v:.0%}" for k, v in sorted(fractions.items(), key=lambda kv: -kv[1])
            )
            lines.append(f"simulated shares : {parts}")
    return "\n".join(lines)


def batch_report(
    outcomes: Sequence[object],
    event_counts: Optional[Dict[str, int]] = None,
) -> str:
    """Summary table of a batch service run (``repro-match batch``).

    ``outcomes`` are :class:`~repro.service.jobs.JobOutcome` records; the
    optional ``event_counts`` histogram (from
    :func:`repro.service.events.summarize_events`) is appended so the
    table and the event log tell one story.
    """
    rows = []
    for o in outcomes:
        rows.append([
            o.spec.job_id,
            o.status,
            o.spec.algorithm,
            o.engine_used if o.engine_used is not None else "native",
            o.cardinality if o.cardinality is not None else "-",
            (o.error or "")[:48],
        ])
    lines = [format_table(
        ["job", "status", "algorithm", "engine", "|M|", "error"],
        rows,
        title="batch summary",
    )]
    succeeded = sum(1 for o in outcomes if o.status in ("done", "resumed"))
    resumed = sum(1 for o in outcomes if o.status == "resumed")
    lines.append(
        f"{succeeded}/{len(outcomes)} jobs succeeded "
        f"({resumed} resumed from checkpoint, "
        f"{sum(1 for o in outcomes if o.status == 'timeout')} timed out, "
        f"{sum(1 for o in outcomes if o.status == 'failed')} failed)"
    )
    if event_counts:
        parts = ", ".join(f"{name} x{n}" for name, n in sorted(event_counts.items()))
        lines.append(f"events: {parts}")
    return "\n".join(lines)
