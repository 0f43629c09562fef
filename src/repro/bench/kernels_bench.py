"""Kernel backend benchmark: python vs numpy vs process-parallel engines.

This is the repo's recorded perf trajectory for the MS-BFS-Graft hot path.
:func:`run_kernel_bench` times the driver backends on three input families
(RMAT, Erdős–Rényi, skewed power-law bipartite), checks that they agree on
the matching cardinality, and produces a JSON-serialisable document; the
committed baseline lives at ``benchmarks/BENCH_kernels.json`` and is
refreshed with::

    repro-match bench-kernels --mp-scaling --out benchmarks/BENCH_kernels.json

``scale=1.0`` sizes the RMAT instance at 2^14 vertices per side (the
acceptance graph for the vectorization work); the CI smoke job runs the
same harness at a tiny scale and only validates the schema
(:func:`validate_kernel_bench`), because absolute timings are
machine-specific. Schema v2 adds the shared-memory ``mp`` engine: every
entry records mp timings at the document's worker count, and
``mp_scaling=True`` additionally sweeps the rmat instance over 1/2/4
workers and records what :func:`repro.core.driver.choose_engine` decides
for that instance on the recording host — on a single-core box the honest
answer is a decline, and the baseline says so. Schema v4 drops the
per-ordering rows of v3 (vertex reordering was removed): one row per
graph, on the generator's own numbering. See ``docs/performance.md`` for
the kernel design and ``docs/multicore.md`` for the mp backend.
"""

from __future__ import annotations

import json
import math
import platform
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.core.driver import available_cores, choose_engine, ms_bfs_graft
from repro.errors import BenchmarkError
from repro.graph import generators as gen
from repro.graph.csr import BipartiteCSR
from repro.matching.verify import verify_maximum

SCHEMA_VERSION = 4

ENGINES = ("python", "numpy", "mp")

MP_SCALING_WORKERS = (1, 2, 4)
"""Worker counts of the ``mp_scaling`` sweep (the rmat14 speedup-vs-workers
record the roadmap asks for)."""


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
    graph: BipartiteCSR,
    engine: str,
    repeats: int,
    workers: int | None = None,
) -> tuple[Dict[str, object], int]:
    """Best/mean wall seconds over ``repeats`` runs plus the cardinality."""
    times: List[float] = []
    cardinality = -1
    kwargs: Dict[str, object] = {"workers": workers} if engine == "mp" else {}
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        result = ms_bfs_graft(graph, engine=engine, emit_trace=False, **kwargs)
        times.append(time.perf_counter() - t0)
        cardinality = result.cardinality
    stats = {
        "best_seconds": min(times),
        "mean_seconds": sum(times) / len(times),
        "runs": len(times),
    }
    return stats, cardinality


def _mp_scaling_sweep(
    graph: BipartiteCSR, repeats: int, workers_requested: int
) -> Dict[str, object]:
    """Time the mp engine at each sweep worker count and record what the
    cost model would actually dispatch for this instance on this host.

    The dispatch record is the honest half of the story: on a single-core
    machine every mp timing is pure barrier overhead, and
    :func:`~repro.core.driver.choose_engine` declines — the baseline then
    documents the decline (engine + reason) instead of implying a speedup.
    """
    sweep: List[Dict[str, object]] = []
    for w in MP_SCALING_WORKERS:
        stats, _ = _time_engine(graph, "mp", repeats, workers=w)
        sweep.append({"workers": w, "best_seconds": stats["best_seconds"]})
    decision = choose_engine(graph, emit_trace=False, workers=workers_requested)
    return {
        "workers": sweep,
        "dispatch": {
            "requested_workers": int(workers_requested),
            "cores": int(available_cores()),
            "engine": decision.engine,
            "reason": decision.reason,
        },
    }


def run_kernel_bench(
    scale: float = 1.0,
    repeats: int = 3,
    graphs: Sequence[str] | None = None,
    verify: bool = True,
    cache=None,
    workers: int = 2,
    mp_scaling: bool = False,
) -> Dict[str, object]:
    """Time every backend on every benchmark input; return the JSON doc.

    Runs start from the empty matching so the engines do *all* the work
    (Karp-Sipser initialisation would hide most of the kernel time). The
    backends must agree on the cardinality graph by graph — the benchmark
    doubles as a coarse differential test — and ``verify=True``
    additionally certifies the vectorized result (Berge + König).
    ``cache`` is an optional :class:`repro.cache.GraphCache`: the bench
    inputs then resolve content-addressed (keyed under ``kind="bench"`` so
    they never collide with same-named suite graphs). ``workers`` sets the
    mp engine's pool size for the per-entry timings; ``mp_scaling=True``
    additionally sweeps the rmat entry over :data:`MP_SCALING_WORKERS` and
    records the host's dispatch decision (see :func:`_mp_scaling_sweep`).
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
            timings[engine], cardinalities[engine] = _time_engine(
                graph, engine, repeats, workers=workers
            )
        if len(set(cardinalities.values())) != 1:
            raise BenchmarkError(
                f"backends disagree on {spec.name}: {cardinalities}"
            )
        cardinality = cardinalities["numpy"]
        if verify:
            result = ms_bfs_graft(graph, engine="numpy", emit_trace=False)
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
        if mp_scaling and spec.name == "rmat":
            entry["mp_scaling"] = _mp_scaling_sweep(graph, repeats, workers)
        entries.append(entry)
    return {
        "schema_version": SCHEMA_VERSION,
        "benchmark": "ms-bfs-graft kernel backends",
        "scale": scale,
        "repeats": repeats,
        "engines": list(ENGINES),
        "workers": int(workers),
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
    expect(isinstance(doc.get("workers"), int) and doc.get("workers", 0) >= 1,
           "workers must be a positive integer (mp pool size of the timings)")
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
        scaling = entry.get("mp_scaling")
        if scaling is not None:
            if not isinstance(scaling, dict):
                problems.append(f"{where}.mp_scaling is not an object")
                continue
            sweep = scaling.get("workers")
            expect(isinstance(sweep, list) and len(sweep) >= 1,
                   f"{where}.mp_scaling.workers must be a non-empty list")
            for j, point in enumerate(sweep if isinstance(sweep, list) else []):
                pwhere = f"{where}.mp_scaling.workers[{j}]"
                if not isinstance(point, dict):
                    problems.append(f"{pwhere} is not an object")
                    continue
                expect(isinstance(point.get("workers"), int) and point.get("workers", 0) >= 1,
                       f"{pwhere}.workers must be a positive integer")
                expect(isinstance(point.get("best_seconds"), (int, float))
                       and point.get("best_seconds", -1) > 0,
                       f"{pwhere}.best_seconds must be a positive number")
            dispatch = scaling.get("dispatch")
            if not isinstance(dispatch, dict):
                problems.append(f"{where}.mp_scaling.dispatch is not an object")
                continue
            expect(dispatch.get("engine") in ("mp", "numpy", "python"),
                   f"{where}.mp_scaling.dispatch.engine must be a concrete "
                   f"engine name ('mp', 'numpy', or 'python')")
            expect(isinstance(dispatch.get("reason"), str) and dispatch.get("reason"),
                   f"{where}.mp_scaling.dispatch.reason must be a non-empty string")
            for key in ("requested_workers", "cores"):
                expect(isinstance(dispatch.get(key), int) and dispatch.get(key, 0) >= 1,
                       f"{where}.mp_scaling.dispatch.{key} must be a positive integer")
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
        mp = entry["timings"].get("mp")
        rows.append(
            [
                entry["name"],
                entry["n_x"] + entry["n_y"],
                entry["nnz"],
                entry["cardinality"],
                entry["timings"]["python"]["best_seconds"],
                entry["timings"]["numpy"]["best_seconds"],
                mp["best_seconds"] if mp else "-",
                f"{entry['speedup']:.1f}x",
            ]
        )
    table = format_table(
        ["graph", "n", "nnz", "|M|", "python (s)", "numpy (s)",
         f"mp/{doc['workers']}w (s)", "speedup"],
        rows,
        title=f"Kernel backends, scale={doc['scale']} "
              f"(best of {doc['repeats']} runs, empty initial matching)",
    )
    scaling_lines = []
    for entry in doc["graphs"]:
        scaling = entry.get("mp_scaling")
        if not scaling:
            continue
        points = ", ".join(
            f"{p['workers']}w={p['best_seconds']:.3f}s" for p in scaling["workers"]
        )
        d = scaling["dispatch"]
        scaling_lines.append(
            f"mp scaling [{entry['name']}]: {points}\n"
            f"dispatch (workers={d['requested_workers']}, cores={d['cores']}): "
            f"{d['engine']} — {d['reason']}"
        )
    if scaling_lines:
        table += "\n" + "\n".join(scaling_lines)
    return table


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
