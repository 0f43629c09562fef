"""Kernel backend benchmark: the python engine against the numpy engine.

This is the repo's recorded perf trajectory for the MS-BFS-Graft hot path.
:func:`run_kernel_bench` times the driver backends on three input families
(RMAT, Erdős–Rényi, skewed power-law bipartite), checks that they agree on
the matching cardinality, and produces a JSON-serialisable document; the
committed baseline lives at ``benchmarks/BENCH_kernels.json`` and is
refreshed with::

    repro-match bench-kernels --out benchmarks/BENCH_kernels.json

``scale=1.0`` sizes the RMAT instance at 2^14 vertices per side (the
acceptance graph for the vectorization work); the CI smoke job runs the
same harness at a tiny scale and only validates the schema
(:func:`validate_kernel_bench`), because absolute timings are
machine-specific. Schema v4 dropped the per-ordering rows of v3 (vertex
reordering was removed): one row per graph, on the generator's own
numbering. Schema v5 drops the process-pool engine's timings, its worker
count and its scaling sweep (that engine was removed): every row times
python and numpy only. See ``docs/performance.md`` for the kernel design
and ``docs/multicore.md`` for why there is no process-parallel engine.
"""

from __future__ import annotations

import json
import math
import platform
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.core.driver import ms_bfs_graft
from repro.errors import BenchmarkError
from repro.graph import generators as gen
from repro.graph.csr import BipartiteCSR
from repro.matching.verify import verify_maximum

SCHEMA_VERSION = 5

ENGINES = ("python", "numpy")


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


def _time_engine(
    graph: BipartiteCSR, engine: str, repeats: int
) -> tuple[Dict[str, object], int]:
    """Best/mean wall seconds over ``repeats`` runs plus the cardinality."""
    times: List[float] = []
    cardinality = -1
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        result = ms_bfs_graft(graph, engine=engine)
        times.append(time.perf_counter() - t0)
        cardinality = result.cardinality
    stats = {
        "best_seconds": min(times),
        "mean_seconds": sum(times) / len(times),
        "runs": len(times),
    }
    return stats, cardinality


def run_kernel_bench(
    scale: float = 1.0,
    repeats: int = 3,
    graphs: Sequence[str] | None = None,
    verify: bool = True,
    cache=None,
) -> Dict[str, object]:
    """Time every backend on every benchmark input; return the JSON doc.

    Runs start from the empty matching so the engines do *all* the work
    (Karp-Sipser initialisation would hide most of the kernel time). The
    backends must agree on the cardinality graph by graph — the benchmark
    doubles as a coarse differential test — and ``verify=True``
    additionally certifies the vectorized result (Berge + König).
    ``cache`` is an optional :class:`repro.cache.GraphCache`: the bench
    inputs then resolve content-addressed (keyed under ``kind="bench"`` so
    they never collide with same-named suite graphs).
    """
    selected = [g for g in BENCH_GRAPHS if graphs is None or g.name in graphs]
    if graphs is not None:
        unknown = set(graphs) - {g.name for g in BENCH_GRAPHS}
        if unknown:
            raise BenchmarkError(
                f"unknown bench graph(s) {sorted(unknown)}; "
                f"known: {[g.name for g in BENCH_GRAPHS]}"
            )
    entries: List[Dict[str, object]] = []
    for spec in selected:
        if cache is not None:
            graph = cache.prepare_spec(
                "bench", spec.name, {"scale": float(scale)},
                lambda spec=spec: spec.build(scale),
                source=f"bench:{spec.name} {spec.describe(scale)}",
            ).graph
        else:
            graph = spec.build(scale)
        timings: Dict[str, Dict[str, object]] = {}
        cardinalities: Dict[str, int] = {}
        for engine in ENGINES:
            timings[engine], cardinalities[engine] = _time_engine(graph, engine, repeats)
        if len(set(cardinalities.values())) != 1:
            raise BenchmarkError(
                f"backends disagree on {spec.name}: {cardinalities}"
            )
        cardinality = cardinalities["numpy"]
        if verify:
            result = ms_bfs_graft(graph, engine="numpy")
            verify_maximum(graph, result.matching)
        entry: Dict[str, object] = {
            "name": spec.name,
            "family": spec.family,
            "generator": spec.describe(scale),
            "n_x": graph.n_x,
            "n_y": graph.n_y,
            "nnz": graph.nnz,
            "cardinality": int(cardinality),
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

    Used by the CI bench-smoke job and the tier-1 schema test, so a field
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
    """Read and validate a benchmark document from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return validate_kernel_bench(json.load(fh))
