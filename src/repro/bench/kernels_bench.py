"""Kernel backend benchmark and its regression gate: python against numpy.

This module is the one owner of the recorded perf trajectory for the
MS-BFS-Graft hot path. :func:`run_kernel_bench` times the driver backends
on three input families (RMAT, Erdős–Rényi, skewed power-law bipartite),
checks that they agree on the matching cardinality, certifies the numpy
result, and produces a JSON-serialisable document. The committed baseline
lives at ``benchmarks/BENCH_kernels.json`` and is refreshed with::

    PYTHONPATH=src python -m pytest benchmarks/bench_kernels.py -m slow

``scale=1.0`` sizes the RMAT instance at 2^14 vertices per side (the
acceptance graph for the vectorization work). :func:`run_perf_check` is
``repro-match perf-check``: it re-times the catalogue at the scale and
repeats the baseline records, requires every row's ``nnz`` and
``cardinality`` to equal the recorded ones (so the committed cardinalities
are a cross-platform golden), and flags any (graph, engine) whose best
seconds exceed the baseline's by more than :data:`TOLERANCE`. Schema v4
dropped the per-ordering rows of v3 (vertex reordering was removed): one
row per graph, on the generator's own numbering. Schema v5 drops the
process-pool engine's timings, its worker count and its scaling sweep
(that engine was removed): every row times python and numpy only. See
``docs/performance.md`` for the kernel design and ``docs/multicore.md``
for why there is no process-parallel engine.
"""

from __future__ import annotations

import json
import math
import platform
import time
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from repro.core.driver import ms_bfs_graft
from repro.errors import BenchmarkError
from repro.graph import generators as gen
from repro.graph.csr import BipartiteCSR
from repro.matching.verify import verify_maximum

SCHEMA_VERSION = 5

ENGINES = ("python", "numpy")

TOLERANCE = 5.0
"""Slowdown factor past which ``perf-check`` flags a (graph, engine) row.

Generous on purpose: the gate catches order-of-magnitude regressions (an
accidentally quadratic kernel, a dropped fast path), not noise.
"""


@dataclass(frozen=True)
class KernelBenchGraph:
    """One benchmark input: a named generator configuration."""

    name: str
    family: str
    describe: Callable[[float], str]
    build: Callable[[float], BipartiteCSR]


def _rmat_scale(s: float) -> int:
    """scale=1.0 -> 2^14 vertices per side, halving n per halving of s."""
    return max(6, int(round(14 + math.log2(max(s, 1e-9)))))


BENCH_GRAPHS: tuple[KernelBenchGraph, ...] = (
    KernelBenchGraph(
        name="rmat",
        family="RMAT (Graph500-style, skewed communities)",
        describe=lambda s: f"rmat_bipartite(scale={_rmat_scale(s)}, edge_factor=16, seed=103)",
        build=lambda s: gen.rmat_bipartite(scale=_rmat_scale(s), edge_factor=16, seed=103),
    ),
    KernelBenchGraph(
        name="er",
        family="Erdős–Rényi bipartite (uniform degrees)",
        describe=lambda s: (
            f"random_bipartite({int(16384 * s)}, {int(16384 * s)}, {int(6 * 16384 * s)}, seed=7)"
        ),
        build=lambda s: gen.random_bipartite(
            int(16384 * s), int(16384 * s), int(6 * 16384 * s), seed=7
        ),
    ),
    KernelBenchGraph(
        name="skewed",
        family="power-law bipartite (hub-heavy degrees)",
        describe=lambda s: (
            f"power_law_bipartite({int(16384 * s)}, {int(16384 * s)}, "
            f"avg_degree=6.0, exponent=2.1, seed=11)"
        ),
        build=lambda s: gen.power_law_bipartite(
            int(16384 * s), int(16384 * s), avg_degree=6.0, exponent=2.1, seed=11
        ),
    ),
)


def _time_engine(graph: BipartiteCSR, engine: str, repeats: int):
    """Best/mean wall seconds over ``repeats`` runs plus the last result."""
    times: List[float] = []
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        result = ms_bfs_graft(graph, engine=engine)
        times.append(time.perf_counter() - t0)
    stats = {
        "best_seconds": min(times),
        "mean_seconds": sum(times) / len(times),
        "runs": len(times),
    }
    return stats, result


def run_kernel_bench(scale: float = 1.0, repeats: int = 3) -> Dict[str, object]:
    """Time every backend on every benchmark input; return the JSON doc.

    Runs start from the empty matching so the engines do *all* the work
    (Karp-Sipser initialisation would hide most of the kernel time). The
    backends must agree on the cardinality graph by graph — the benchmark
    doubles as a coarse differential test — and the numpy result is
    certified maximum (Berge + König) after its timed runs.
    """
    entries: List[Dict[str, object]] = []
    for spec in BENCH_GRAPHS:
        graph = spec.build(scale)
        timings: Dict[str, Dict[str, object]] = {}
        results = {}
        for engine in ENGINES:
            timings[engine], results[engine] = _time_engine(graph, engine, repeats)
        cardinalities = {engine: r.cardinality for engine, r in results.items()}
        if len(set(cardinalities.values())) != 1:
            raise BenchmarkError(
                f"backends disagree on {spec.name}: {cardinalities}"
            )
        verify_maximum(graph, results["numpy"].matching)
        entry: Dict[str, object] = {
            "name": spec.name,
            "family": spec.family,
            "generator": spec.describe(scale),
            "n_x": graph.n_x,
            "n_y": graph.n_y,
            "nnz": graph.nnz,
            "cardinality": int(cardinalities["numpy"]),
            "timings": timings,
            "speedup": timings["python"]["best_seconds"]
            / max(timings["numpy"]["best_seconds"], 1e-12),
        }
        entries.append(entry)
    return {
        "schema_version": SCHEMA_VERSION,
        "benchmark": "ms-bfs-graft kernel backends",
        "scale": scale,
        "repeats": repeats,
        "engines": list(ENGINES),
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "graphs": entries,
    }


def validate_kernel_bench(doc: Dict[str, object]) -> Dict[str, object]:
    """Validate the BENCH_kernels.json schema; raise BenchmarkError on drift.

    The writer, the loader and the gate all pass through here, so a field
    rename or type change in the benchmark output fails loudly instead of
    silently producing an unreadable baseline.
    """
    problems: List[str] = []

    def expect(cond: bool, msg: str) -> None:
        if not cond:
            problems.append(msg)

    expect(isinstance(doc, dict), "document is not a JSON object")
    if not isinstance(doc, dict):
        raise BenchmarkError("BENCH_kernels schema: document is not a JSON object")
    expect(doc.get("schema_version") == SCHEMA_VERSION,
           f"schema_version != {SCHEMA_VERSION}: {doc.get('schema_version')!r}")
    expect(isinstance(doc.get("scale"), (int, float)) and doc.get("scale", 0) > 0,
           "scale must be a positive number")
    expect(isinstance(doc.get("repeats"), int) and doc.get("repeats", 0) >= 1,
           "repeats must be a positive integer")
    expect(doc.get("engines") == list(ENGINES), f"engines must be {list(ENGINES)}")
    entries = doc.get("graphs")
    expect(isinstance(entries, list) and len(entries) >= 1, "graphs must be a non-empty list")
    for i, entry in enumerate(entries if isinstance(entries, list) else []):
        where = f"graphs[{i}]"
        if not isinstance(entry, dict):
            problems.append(f"{where} is not an object")
            continue
        for key in ("name", "family", "generator"):
            expect(isinstance(entry.get(key), str) and entry.get(key),
                   f"{where}.{key} must be a non-empty string")
        for key in ("n_x", "n_y", "nnz"):
            expect(isinstance(entry.get(key), int) and entry.get(key, -1) >= 0,
                   f"{where}.{key} must be a non-negative integer")
        expect(isinstance(entry.get("cardinality"), int) and entry.get("cardinality", -1) >= 0,
               f"{where}.cardinality must be a non-negative integer")
        timings = entry.get("timings")
        if not isinstance(timings, dict):
            problems.append(f"{where}.timings is not an object")
            continue
        for engine in ENGINES:
            t = timings.get(engine)
            if not isinstance(t, dict):
                problems.append(f"{where}.timings.{engine} missing")
                continue
            for key in ("best_seconds", "mean_seconds"):
                expect(isinstance(t.get(key), (int, float)) and t.get(key, -1) > 0,
                       f"{where}.timings.{engine}.{key} must be a positive number")
            expect(isinstance(t.get("runs"), int) and t.get("runs", 0) >= 1,
                   f"{where}.timings.{engine}.runs must be a positive integer")
        speedup = entry.get("speedup")
        expect(isinstance(speedup, (int, float)) and speedup > 0,
               f"{where}.speedup must be a positive number")
        if isinstance(timings, dict) and isinstance(speedup, (int, float)):
            py = timings.get("python", {}).get("best_seconds")
            npy = timings.get("numpy", {}).get("best_seconds")
            if isinstance(py, (int, float)) and isinstance(npy, (int, float)) and npy > 0:
                expect(abs(speedup - py / npy) <= 1e-6 * max(1.0, speedup),
                       f"{where}.speedup inconsistent with recorded timings")
    if isinstance(entries, list):
        names = [e.get("name") for e in entries if isinstance(e, dict)]
        expect(len(names) == len(set(names)), f"duplicate graph rows: {names}")
    if problems:
        raise BenchmarkError(
            "BENCH_kernels schema: " + "; ".join(problems)
        )
    return doc


def render_kernel_bench(doc: Dict[str, object]) -> str:
    """Paper-style ASCII table of one benchmark document."""
    from repro.bench.report import format_table

    rows = []
    for entry in doc["graphs"]:
        rows.append(
            [
                entry["name"],
                entry["n_x"] + entry["n_y"],
                entry["nnz"],
                entry["cardinality"],
                entry["timings"]["python"]["best_seconds"],
                entry["timings"]["numpy"]["best_seconds"],
                f"{entry['speedup']:.1f}x",
            ]
        )
    return format_table(
        ["graph", "n", "nnz", "|M|", "python (s)", "numpy (s)", "speedup"],
        rows,
        title=f"Kernel backends, scale={doc['scale']} "
              f"(best of {doc['repeats']} runs, empty initial matching)",
    )


def write_kernel_bench(doc: Dict[str, object], path: str) -> None:
    """Persist a validated benchmark document (the committed baseline)."""
    validate_kernel_bench(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")


def load_kernel_bench(path: str) -> Dict[str, object]:
    """Read and validate a benchmark document from disk.

    A missing or unreadable file raises ``OSError``; anything that is not a
    valid document raises :class:`BenchmarkError`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise BenchmarkError(f"{path} is not a JSON document: {exc}") from exc
    return validate_kernel_bench(doc)


@dataclass(frozen=True)
class PerfCheckRow:
    """One (graph, engine) comparison of best seconds."""

    graph: str
    engine: str
    baseline_seconds: float
    fresh_seconds: float

    @property
    def ratio(self) -> float:
        """Fresh / baseline best seconds; > 1 means slower than the baseline."""
        return self.fresh_seconds / self.baseline_seconds

    @property
    def regressed(self) -> bool:
        return self.ratio > TOLERANCE


def compare_kernel_bench(
    fresh: Dict[str, object], baseline: Dict[str, object]
) -> List[PerfCheckRow]:
    """Compare two validated documents row by row, on best seconds.

    Every fresh row must have a baseline row of the same name with the same
    ``nnz`` and ``cardinality``; otherwise the graph, the generator or an
    engine changed and the baseline must be re-recorded, so this raises
    :class:`BenchmarkError` naming the graph.
    """
    validate_kernel_bench(fresh)
    validate_kernel_bench(baseline)
    recorded = {entry["name"]: entry for entry in baseline["graphs"]}
    rows: List[PerfCheckRow] = []
    for entry in fresh["graphs"]:
        name = entry["name"]
        base = recorded.get(name)
        if base is None:
            raise BenchmarkError(f"{name}: the baseline has no row for it; re-record it")
        for key in ("nnz", "cardinality"):
            if entry[key] != base[key]:
                raise BenchmarkError(
                    f"{name}: fresh {key} {entry[key]} != baseline {base[key]}; "
                    f"re-record the baseline if the change is intended"
                )
        rows.extend(
            PerfCheckRow(
                graph=name,
                engine=engine,
                baseline_seconds=base["timings"][engine]["best_seconds"],
                fresh_seconds=entry["timings"][engine]["best_seconds"],
            )
            for engine in ENGINES
        )
    return rows


def run_perf_check(baseline: Dict[str, object]) -> List[PerfCheckRow]:
    """Re-time the catalogue at the baseline's own scale and repeats; compare."""
    fresh = run_kernel_bench(scale=baseline["scale"], repeats=baseline["repeats"])
    return compare_kernel_bench(fresh, baseline)


def render_perf_check(rows: List[PerfCheckRow]) -> str:
    """The gate's table and its one-line verdict."""
    from repro.bench.report import format_table

    table = format_table(
        ["graph", "engine", "baseline (s)", "fresh (s)", "ratio", "status"],
        [
            [row.graph, row.engine, row.baseline_seconds, row.fresh_seconds,
             f"{row.ratio:.2f}x", "REGRESSED" if row.regressed else "ok"]
            for row in rows
        ],
        title=f"perf-check vs committed baseline (tolerance {TOLERANCE:g}x)",
    )
    regressed = sum(row.regressed for row in rows)
    if not regressed:
        return table + "\nperf-check PASSED: all best times within tolerance"
    return (
        f"{table}\nperf-check FAILED: {regressed} (graph, engine) "
        f"pair(s) beyond {TOLERANCE:g}x"
    )
