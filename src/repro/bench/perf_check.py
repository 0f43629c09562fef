"""Performance regression gate against the committed kernel baseline.

``repro-match perf-check`` re-times the kernel benchmark and compares it
against ``benchmarks/BENCH_kernels.json``. Because the baseline was
recorded at scale 1.0 on one machine and CI re-runs at a small scale on
another, raw seconds are not comparable; the gate therefore normalises to
**per-edge time** (``best_seconds / nnz``) and flags a regression only when
the fresh per-edge time exceeds the baseline's by more than the tolerance
factor. The tolerance is deliberately generous by default (CI uses
``--tolerance 5x``): the gate exists to catch order-of-magnitude
regressions — an accidentally quadratic kernel, a dropped fast path — not
±20% noise.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.bench.kernels_bench import (
    ENGINES,
    load_kernel_bench,
    run_kernel_bench,
    validate_kernel_bench,
)
from repro.errors import BenchmarkError

_TOLERANCE_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*x?\s*$", re.IGNORECASE)


def parse_tolerance(text: str) -> float:
    """Parse ``"5x"`` / ``"5"`` / ``"1.5x"`` into a slowdown factor >= 1."""
    match = _TOLERANCE_RE.match(str(text))
    if match is None:
        raise BenchmarkError(
            f"unparseable tolerance {text!r}; expected a factor like '5x' or '2.5'"
        )
    factor = float(match.group(1))
    if factor < 1.0:
        raise BenchmarkError(
            f"tolerance must be >= 1 (a slowdown factor), got {factor}"
        )
    return factor


@dataclass(frozen=True)
class PerfCheckRow:
    """One (graph, engine) comparison of per-edge times."""

    graph: str
    engine: str
    baseline_per_edge: float
    fresh_per_edge: float
    tolerance: float

    @property
    def ratio(self) -> float:
        """Fresh / baseline per-edge time; > 1 means slower than baseline."""
        return self.fresh_per_edge / max(self.baseline_per_edge, 1e-15)

    @property
    def regressed(self) -> bool:
        return self.ratio > self.tolerance


@dataclass(frozen=True)
class PerfCheckReport:
    """Outcome of one perf-check run."""

    rows: List[PerfCheckRow]
    tolerance: float

    @property
    def regressions(self) -> List[PerfCheckRow]:
        return [r for r in self.rows if r.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        from repro.bench.report import format_table

        table_rows = []
        for row in self.rows:
            table_rows.append(
                [
                    row.graph,
                    row.engine,
                    f"{row.baseline_per_edge * 1e9:.2f}",
                    f"{row.fresh_per_edge * 1e9:.2f}",
                    f"{row.ratio:.2f}x",
                    "REGRESSED" if row.regressed else "ok",
                ]
            )
        table = format_table(
            ["graph", "engine", "baseline ns/edge", "fresh ns/edge", "ratio", "status"],
            table_rows,
            title=f"perf-check vs committed baseline (tolerance {self.tolerance:g}x)",
        )
        if self.ok:
            return table + "\nperf-check PASSED: all per-edge times within tolerance"
        return (
            f"{table}\nperf-check FAILED: {len(self.regressions)} (graph, engine) "
            f"pair(s) beyond {self.tolerance:g}x"
        )


def _per_edge_times(doc: Dict[str, object]) -> Dict[str, Dict[str, float]]:
    """``{graph_name: {engine: best_seconds / nnz}}`` for one document."""
    out: Dict[str, Dict[str, float]] = {}
    for entry in doc["graphs"]:
        nnz = max(int(entry["nnz"]), 1)
        out[str(entry["name"])] = {
            engine: float(entry["timings"][engine]["best_seconds"]) / nnz
            for engine in ENGINES
        }
    return out


def compare_kernel_bench(
    fresh: Dict[str, object],
    baseline: Dict[str, object],
    tolerance: float,
) -> PerfCheckReport:
    """Compare two validated benchmark documents graph by graph.

    Only graphs present in *both* documents are compared (a CI run may time
    a subset); zero overlap is an error, not a silent pass.
    """
    validate_kernel_bench(fresh)
    validate_kernel_bench(baseline)
    fresh_times = _per_edge_times(fresh)
    base_times = _per_edge_times(baseline)
    common = [name for name in base_times if name in fresh_times]
    if not common:
        raise BenchmarkError(
            f"no common graphs between fresh run {sorted(fresh_times)} and "
            f"baseline {sorted(base_times)}"
        )
    rows = [
        PerfCheckRow(
            graph=name,
            engine=engine,
            baseline_per_edge=base_times[name][engine],
            fresh_per_edge=fresh_times[name][engine],
            tolerance=tolerance,
        )
        for name in common
        for engine in ENGINES
    ]
    return PerfCheckReport(rows=rows, tolerance=tolerance)


def run_perf_check(
    baseline_path: str,
    *,
    tolerance: float = 5.0,
    scale: float = 0.05,
    repeats: int = 1,
    graphs: Optional[Sequence[str]] = None,
    fresh: Optional[Dict[str, object]] = None,
) -> PerfCheckReport:
    """Load the baseline, time a fresh run (unless given), and compare.

    ``fresh`` short-circuits the timing step — passing the baseline document
    itself is the self-consistency mode of ``perf-check --fresh``.
    """
    baseline = load_kernel_bench(baseline_path)
    if fresh is None:
        fresh = run_kernel_bench(
            scale=scale, repeats=repeats, graphs=graphs, verify=False
        )
    return compare_kernel_bench(fresh, baseline, tolerance)
