"""Offline workloads of the end-to-end benchmark, one worker process per set-up.

    python offline.py WORKLOAD SEED SCALE SECONDS TRACE WORKDIR [TRACE_DIR]

The worker imports the program, builds its input from SEED, sets up
(warm-rmat also fills a graph cache under WORKDIR), runs one untimed warm-up
op and prints one ``{"ready": ...}`` line; the coordinator times spawn to
ready as set-up. On a ``go`` line it computes the scipy oracle, runs ops for
SECONDS and prints one JSON line of results. Any other line makes it exit.

One op is what ``repro-match run`` does after its interpreter has started: the
matching path (timed as ``solve``) and then ``verify_maximum``. Every answer is
also checked outside the timed region against scipy's maximum cardinality and
for being a valid matching of the graph.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from pathlib import Path

import harness
import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from repro.bench.runner import run_algorithm
from repro.cache import GraphCache
from repro.core.driver import choose_engine, ms_bfs_graft
from repro.graph.generators import random_bipartite, rmat_bipartite
from repro.matching.karp_sipser_parallel import karp_sipser_parallel
from repro.matching.verify import verify_maximum
from repro.telemetry import Telemetry

SCRATCH_WORKERS = 2
"""``workers`` of scratch-er: the core count of the 2-core hosts it is sized for."""

OP_PROBES = 3
"""Host-speed samples between two ops; each op is scaled by the six around it."""

ENGINE_STEPS = ("topdown", "bottomup", "augment", "statistics", "grafting")

# Spans of the program's own telemetry that the traced run reads, by the
# layer name they are reported under. Everything else inside the driver
# (phase set-up, finalize) stays in the engine span's self time.
_PROGRAM_SPANS = {
    **{step: f"engine.{step}" for step in ENGINE_STEPS},
    "barrier_wait": "mp.barrier_wait",
    "reorder_invert": "reorder.invert",
}


class OracleMismatch(Exception):
    """The program's matching disagrees with the independent check."""


def _since(start: float) -> float:
    return time.perf_counter() - start


def _seconds_in(tel: Telemetry, name: str) -> float:
    return sum(s.end - s.start for s in tel.tracer.spans if s.name == name)


class OfflineWorkload:
    """One offline workload: its input, its op, and its checks."""

    def __init__(self, workload: str, seed: int, scale: int, workdir: Path,
                 traced: bool = False) -> None:
        if workload not in harness.OFFLINE_WORKLOADS:
            raise ValueError(f"unknown offline workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.workdir = Path(workdir)
        self.traced = traced
        self.graph = None
        self.setup_layers = {"graph.build_s": 0.0, "cache.fill_s": 0.0,
                             "reorder.plan_s": 0.0, "reorder.apply_s": 0.0}
        self.warmup = None
        self.ref_cardinality = -1
        self.ref_seconds = 0.0
        self._edge_keys = None

    # ---------------------------------------------------------------- input

    def build_graph(self):
        """The workload's input; a pure function of (workload, seed, scale)."""
        if self.workload == "scratch-er":
            # A square ER graph leaves its free X vertices in one giant
            # alternating region for about a third of the seeds only, which
            # triples verify's cost on those; 1/64 fewer Y vertices makes
            # that region certain, so every seed does the same kind of work.
            n = 1 << self.scale
            return random_bipartite(n, n - n // 64, 6 * n, seed=7 + self.seed)
        return rmat_bipartite(scale=self.scale, edge_factor=16, seed=103 + self.seed)

    def _build_timed(self):
        start = time.perf_counter()
        self.graph = self.build_graph()
        self.setup_layers["graph.build_s"] += _since(start)
        return self.graph

    def _open_cache(self):
        cache = GraphCache(self.workdir / "cache")
        prepared = cache.prepare_spec(
            "e2e", "rmat", {"scale": self.scale, "edge_factor": 16, "seed": 103 + self.seed},
            self._build_timed,
        )
        return cache, prepared

    # ---------------------------------------------------------------- set-up

    def setup(self) -> None:
        """Everything the program does before it can answer: input, cache fill, warm-up."""
        if self.workload == "warm-rmat":
            self._fill_cache()
        else:
            self._build_timed()
        _, result = self.solve()
        self.warmup = result.matching

    def _fill_cache(self) -> None:
        """``run --cache-dir D --reorder auto`` on an empty D: every prep stage misses."""
        tel = Telemetry() if self.traced else None
        start = time.perf_counter()
        cache, prepared = self._open_cache()
        cache.warm_start(prepared, 0)
        decision = choose_engine(prepared.graph, reorder="auto", workers=1)
        if decision.reorder != "none":
            cache.prepare_layout(prepared, decision.reorder, telemetry=tel)
        total = _since(start)
        if tel is not None:
            self.setup_layers["reorder.plan_s"] = _seconds_in(tel, "reorder_plan")
            self.setup_layers["reorder.apply_s"] = _seconds_in(tel, "reorder_apply")
        self.setup_layers["cache.fill_s"] = total - sum(
            self.setup_layers[k] for k in ("graph.build_s", "reorder.plan_s", "reorder.apply_s"))

    # ---------------------------------------------------------------- one op

    def solve(self):
        """The matching path of one op; returns ``(graph, MatchResult)``."""
        if self.workload == "ks-rmat":
            return self.graph, run_algorithm("ms-bfs-graft", self.graph)
        if self.workload == "scratch-er":
            return self.graph, run_algorithm("ms-bfs-graft", self.graph, init="none",
                                             workers=SCRATCH_WORKERS)
        # warm-rmat: the call sequence of `run --cache-dir D --reorder auto`.
        cache, prepared = self._open_cache()
        initial = cache.warm_start(prepared, 0)
        decision = choose_engine(prepared.graph, reorder="auto", workers=1)
        plan = layout = None
        if decision.reorder != "none":
            derived = cache.prepare_layout(prepared, decision.reorder)
            plan, layout = derived.reorder_plan, derived.graph
        result = run_algorithm("ms-bfs-graft", prepared.graph, initial,
                               reorder=decision.reorder, reorder_plan=plan,
                               reorder_layout=layout)
        return prepared.graph, result

    def solve_traced(self, spans: harness.Spans, op: int):
        """:meth:`solve` split into its public calls, one span per layer.

        Returns ``(graph, result, init_result, initial, supersteps)``.
        """
        tel = Telemetry()
        plan = layout = initial = init_result = None
        workers = None
        if self.workload == "warm-rmat":
            with spans.span("cache.load", op):
                cache, prepared = self._open_cache()
                initial = cache.warm_start(prepared, 0)
            graph = prepared.graph
            with spans.span("dispatch", op):
                decision = choose_engine(graph, reorder="auto", workers=1)
            if decision.reorder != "none":
                with spans.span("cache.load", op):
                    derived = cache.prepare_layout(prepared, decision.reorder)
                plan, layout = derived.reorder_plan, derived.graph
        else:
            graph = self.graph
            with spans.span("init", op):
                if self.workload == "ks-rmat":
                    # What suite_initializer runs, called directly for its counters.
                    init_result = karp_sipser_parallel(graph, seed=0, max_degree_one_rounds=2)
                    initial = init_result.matching
            if self.workload == "scratch-er":
                workers = SCRATCH_WORKERS
            with spans.span("dispatch", op):
                decision = choose_engine(graph, workers=workers or 1)
        with spans.span("engine", op) as engine_span:
            result = ms_bfs_graft(graph, initial, engine=decision.engine, workers=workers,
                                  telemetry=tel, reorder_plan=plan, reorder_layout=layout)
        self._adopt_program_spans(spans, op, engine_span["id"], tel)
        supersteps = sum(1 for s in tel.tracer.spans if s.name == "superstep")
        return graph, result, init_result, initial, supersteps

    @staticmethod
    def _adopt_program_spans(spans: harness.Spans, op: int, engine_id: int,
                             tel: Telemetry) -> None:
        """Copy the driver's step spans under the engine span, keeping their nesting."""
        by_id = {s.span_id: s for s in tel.tracer.spans}
        adopted: dict[int, int] = {}
        for s in tel.tracer.spans:  # parents precede children
            if s.name not in _PROGRAM_SPANS or s.end is None:
                continue
            parent = s.parent_id
            while parent is not None and parent not in adopted:
                parent = by_id[parent].parent_id
            spans.add(_PROGRAM_SPANS[s.name], op,
                      adopted[parent] if parent is not None else engine_id, s.start, s.end)
            adopted[s.span_id] = spans.records[-1]["id"]

    # ---------------------------------------------------------------- checks

    def compute_oracle(self) -> None:
        """Maximum cardinality by scipy's compiled matcher (independent of the program)."""
        g = self.graph
        matrix = csr_matrix((np.ones(g.nnz, dtype=np.int8), g.x_adj, g.x_ptr),
                            shape=(g.n_x, g.n_y))
        start = time.perf_counter()
        mates = maximum_bipartite_matching(matrix, perm_type="column")
        self.ref_seconds = _since(start)
        self.ref_cardinality = int((mates >= 0).sum())
        rows = np.repeat(np.arange(g.n_x, dtype=np.int64), np.diff(g.x_ptr))
        self._edge_keys = np.sort(rows * g.n_y + np.asarray(g.x_adj, dtype=np.int64))

    def check(self, matching) -> None:
        """Raise :class:`OracleMismatch` unless ``matching`` is a maximum matching."""
        g = self.graph
        mate_x = np.asarray(matching.mate_x, dtype=np.int64)
        mate_y = np.asarray(matching.mate_y, dtype=np.int64)
        if mate_x.shape != (g.n_x,) or mate_y.shape != (g.n_y,):
            raise OracleMismatch("mate arrays have the wrong shape")
        xs = np.flatnonzero(mate_x >= 0)
        ys = mate_x[xs]
        if np.any(ys >= g.n_y) or np.any(mate_y[ys] != xs) or int((mate_y >= 0).sum()) != xs.size:
            raise OracleMismatch("mate_x and mate_y disagree")
        keys = xs * g.n_y + ys
        pos = np.minimum(np.searchsorted(self._edge_keys, keys), self._edge_keys.size - 1)
        if np.any(self._edge_keys[pos] != keys):
            raise OracleMismatch("a matched pair is not an edge of the graph")
        if xs.size != self.ref_cardinality:
            raise OracleMismatch(f"|M| = {xs.size} but scipy finds {self.ref_cardinality}")

    # ---------------------------------------------------------------- measuring

    def measure(self, seconds: float, trace_dir: Path | None = None) -> dict:
        """Run ops for ``seconds``; traced runs alternate plain and traced ops."""
        self.compute_oracle()
        attempted, failed = 1, 0
        try:
            self.check(self.warmup)
        except OracleMismatch:
            failed += 1
            traceback.print_exc()
        plain = []
        traced_ops = []
        spans = harness.Spans()
        cal = harness.Calibration()
        start = time.perf_counter()
        i = 0
        while time.perf_counter() - start < seconds or i < 2:
            cal.sample(OP_PROBES)
            traced = self.traced and i % 2 == 1
            i += 1
            attempted += 1
            try:
                if traced:
                    rec = self._traced_op(spans, i)
                    matching = rec.pop("matching")
                else:
                    t0 = time.perf_counter()
                    graph, result = self.solve()
                    t1 = time.perf_counter()
                    verify_maximum(graph, result.matching)
                    t2 = time.perf_counter()
                    matching = result.matching
                self.check(matching)
            except Exception:  # noqa: BLE001 - every failure is counted, the first shown
                failed += 1
                if failed == 1:
                    traceback.print_exc()
                continue
            if traced:
                traced_ops.append(rec)
            else:
                plain.append((t0, t1, t2))
        cal.sample(OP_PROBES)  # the last op's samples after it
        out = {"attempted": attempted, "failed": failed, "labels": self.labels(),
               "scale": cal.scale()}
        factors = [cal.scale(t0, t2) for t0, _, t2 in plain]
        solve = [t1 - t0 for t0, t1, _ in plain]
        whole = [t2 - t0 for t0, _, t2 in plain]
        if self.traced:
            out["metrics"], out["coverage_ok"] = self._layer_metrics(
                solve, whole, traced_ops, spans, cal)
            if trace_dir is not None:
                harness.write_trace_files(trace_dir, self.workload, [spans])
        else:
            rss = harness.peak_rss_mb()
            out["metrics"] = {
                "solve_ms": harness.metric([v * 1e3 for v in solve], factors, "ms"),
                "op_ms": harness.metric([v * 1e3 for v in whole], factors, "ms"),
                "ops_per_s": harness.rate(whole, factors),
                "peak_rss_mb": [rss, 1, rss],
            }
        return out

    def _traced_op(self, spans: harness.Spans, op: int) -> dict:
        with spans.span("op", op) as op_span:
            graph, result, init_result, initial, supersteps = self.solve_traced(spans, op)
            with spans.span("verify", op):
                verify_maximum(graph, result.matching)
        c = result.counters
        return {
            "op": op, "seconds": op_span["end"] - op_span["start"],
            "span": (op_span["start"], op_span["end"]), "matching": result.matching,
            "init.edges": init_result.counters.edges_traversed if init_result else 0,
            "init.rounds": init_result.counters.phases if init_result else 0,
            "init.matched_frac": (initial.cardinality if initial is not None else 0)
            / max(self.ref_cardinality, 1),
            "engine.phases": c.phases, "engine.levels": c.bfs_levels,
            "engine.edges": c.edges_traversed, "engine.augmentations": c.augmentations,
            "engine.grafts": c.grafts, "engine.rebuilds": c.tree_rebuilds,
            "engine.topdown_steps": c.topdown_steps, "engine.bottomup_steps": c.bottomup_steps,
            "mp.supersteps": supersteps,
        }

    def _layer_metrics(self, solve: list, whole: list, traced_ops: list[dict],
                       spans: harness.Spans, cal: harness.Calibration):
        per_op = harness.self_times(spans.records)
        rows = []
        for rec in traced_ops:
            layers = per_op[rec["op"]]
            engine_s = sum(v for k, v in layers.items()
                           if k == "engine" or k.startswith(("engine.", "mp.")))
            row = dict(rec, **{
                "factor": cal.scale(*rec["span"]),
                "cache.load_s": layers.get("cache.load", 0.0),
                "init.s": layers.get("init", 0.0),
                "dispatch.s": layers.get("dispatch", 0.0),
                "engine.s": engine_s,
                "reorder.invert_s": layers.get("reorder.invert", 0.0),
                "verify.s": layers.get("verify", 0.0),
                "mp.barrier_wait_s": layers.get("mp.barrier_wait", 0.0),
                "engine.mteps": rec["engine.edges"] / engine_s / 1e6 if engine_s else 0.0,
                "engine.edges_per_aug": (rec["engine.edges"] / rec["engine.augmentations"]
                                         if rec["engine.augmentations"] else 0.0),
            })
            for step in ENGINE_STEPS:
                row[f"engine.{step}_s"] = layers.get(f"engine.{step}", 0.0)
            rows.append(row)
        covered = sum(r[k] for r in rows for k in (
            "cache.load_s", "init.s", "dispatch.s", "engine.s", "reorder.invert_s", "verify.s"))
        coverage = covered / sum(r["seconds"] for r in rows) if rows else 0.0
        n = len(rows)
        run_scale = cal.scale()
        metrics = {name: [0.0, 0, 0.0] for name in harness.PER_LAYER_UNITS}
        for name, unit in harness.PER_LAYER_UNITS.items():
            if rows and name in rows[0]:
                metrics[name] = harness.metric([r[name] for r in rows],
                                               [r["factor"] for r in rows], unit)
        for name, value in [*self.setup_layers.items(), ("ref.scipy_s", self.ref_seconds)]:
            metrics[name] = [value * run_scale, 1, value]
        vs_scipy = harness.median(solve) / self.ref_seconds if self.ref_seconds else 0.0
        metrics["ref.solve_vs_scipy"] = [vs_scipy, len(solve), vs_scipy]
        overhead = (harness.median([r["seconds"] for r in rows]) / harness.median(whole) - 1.0
                    if whole and rows else 0.0)
        metrics["trace.overhead"] = [overhead, n, overhead]
        metrics["trace.coverage"] = [coverage, n, coverage]
        return metrics, bool(rows) and coverage >= harness.COVERAGE_MIN

    def labels(self) -> dict:
        """The dispatch decision this workload's op runs under."""
        if self.workload == "warm-rmat":
            d = choose_engine(self.graph, reorder="auto", workers=1)
            return {"engine": choose_engine(self.graph).engine, "reorder": d.reorder}
        workers = SCRATCH_WORKERS if self.workload == "scratch-er" else 1
        return {"engine": choose_engine(self.graph, workers=workers).engine, "reorder": "none"}


def main(argv: list[str]) -> int:
    workload, seed, scale, seconds, traced, workdir = argv[:6]
    trace_dir = Path(argv[6]) if len(argv) > 6 else None
    # The protocol owns stdout; anything else the program prints goes to stderr.
    protocol, sys.stdout = sys.stdout, sys.stderr
    # The host-speed probes run here, on the CPU the set-up runs on, and
    # their time is taken out of the set-up time.
    start = time.perf_counter()
    cal = harness.Calibration()
    cal.sample(harness.SETUP_PROBES)
    probe_s = _since(start)
    bench = OfflineWorkload(workload, int(seed), int(scale), Path(workdir), traced == "1")
    bench.setup()
    start = time.perf_counter()
    cal.sample(harness.SETUP_PROBES)
    probe_s += _since(start)
    print(json.dumps({"ready": workload, "probe_s": probe_s, "scale": cal.scale()}),
          file=protocol, flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    print(json.dumps(bench.measure(float(seconds), trace_dir)), file=protocol, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
