"""Shared pieces of the end-to-end benchmark: paths, metric tables, statistics, spans.

Importing this module puts the checkout's ``src`` directory first on
``sys.path``, so every benchmark process measures the code of the checkout it
lives in, never an installed copy.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
SRC = REPO / "src"
WORK_ROOT = REPO / ".e2e-work"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

OFFLINE_WORKLOADS = ("ks-rmat", "scratch-er", "warm-rmat")
WORKLOADS = OFFLINE_WORKLOADS + ("online-churn",)

DEFAULT_SCALE = 15
"""log2 of the X vertices of the offline graphs (2**15 = 32768).

Chosen so that a 15 s run holds 25-60 certified solves per offline workload
on a quiet host and one run of any workload, set-ups included, takes under
half a minute; at 2**17 a cold hubsplit plan alone takes about 10 s of every
warm-rmat set-up."""

SETUPS = 3
"""Fresh worker processes set up per plain run; ``setup_s`` is their median.

Five steadied ``setup_s`` little, and made a warm-rmat run last 42 s on a
host at half speed; a slower host would stretch the set-ups further."""

REFERENCE_CAL_S = 0.005
"""About the median of :meth:`Calibration.sample` on the host that recorded
baseline.json, at times when it was quiet; it sets the unit of every reported time."""

SETUP_PROBES = 20
"""Calibration samples taken at each end of a set-up (about 0.1 s), outside its time."""

E2E_UNITS = {
    "setup_s": "s",
    "solve_ms": "ms",
    "op_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
"""End-to-end metrics, printed by every plain (``--trace 0``) run."""

PER_LAYER_UNITS = {
    "graph.build_s": "s",
    "cache.fill_s": "s",
    "cache.load_s": "s",
    "reorder.plan_s": "s",
    "reorder.apply_s": "s",
    "reorder.invert_s": "s",
    "init.s": "s",
    "init.edges": "count",
    "init.rounds": "count",
    "init.matched_frac": "ratio",
    "dispatch.s": "s",
    "engine.s": "s",
    "engine.phases": "count",
    "engine.levels": "count",
    "engine.edges": "count",
    "engine.augmentations": "count",
    "engine.grafts": "count",
    "engine.rebuilds": "count",
    "engine.topdown_steps": "count",
    "engine.bottomup_steps": "count",
    "engine.mteps": "Medges/s",
    "engine.edges_per_aug": "count",
    "engine.topdown_s": "s",
    "engine.bottomup_s": "s",
    "engine.augment_s": "s",
    "engine.statistics_s": "s",
    "engine.grafting_s": "s",
    "mp.barrier_wait_s": "s",
    "mp.supersteps": "count",
    "verify.s": "s",
    "ref.scipy_s": "s",
    "ref.solve_vs_scipy": "ratio",
    "incremental.repair_ms_p50": "ms",
    "incremental.repair_ms_p90": "ms",
    "incremental.sweeps_mean": "count",
    "incremental.augmented_mean": "count",
    "incremental.skipped_frac": "ratio",
    "online.wait_ms_p50": "ms",
    "online.wait_ms_p90": "ms",
    "online.read_ms_p50": "ms",
    "online.read_ms_p90": "ms",
    "online.create_s": "s",
    "online.verify_s": "s",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
}
"""Per-layer metrics, printed by every traced (``--trace 1``) run.

A layer the workload does not exercise reads 0 there (the engine on
online-churn, the daemon on the offline workloads)."""

COVERAGE_MIN = 0.95
"""Offline traced runs fail when layer self-times cover less of the op."""


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] (numpy's default)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def mean(values) -> float:
    return float(statistics.fmean(values)) if values else 0.0


class Calibration:
    """Host-speed probe: a fixed Python and numpy kernel that never calls the program.

    Shared hosts drift by 10-20% over minutes and sometimes run 50% slow for
    seconds at a time, which moves whole runs and parts of runs that no median
    removes. Every time the benchmark reports is therefore multiplied by
    ``REFERENCE_CAL_S / median(kernel times)`` over the samples taken within
    ``window`` seconds of it, and every rate divided by the same factor: the
    numbers read as if measured on the reference host.

    The slowdown is not the same on every CPU: one can run at 60% speed while
    the other runs at full speed. So the kernel runs on the CPU whose speed it
    stands for: in the process being timed, on the CPU that process runs on,
    or, with ``each_cpu``, on every CPU the benchmark may use in turn, for
    work spread over several processes.
    """

    def __init__(self, window: float = 0.1, each_cpu: bool = False) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.window = window
        self.each_cpu = each_cpu
        self._data = rng.random(125_000)
        self._ids = rng.integers(0, 32_768, 12_000)
        self._mark = np.zeros(32_768, dtype=bool)
        self.samples: list[tuple[float, float]] = []
        """``(midpoint, seconds)`` per sample, on the ``perf_counter`` clock."""

    def sample(self, repeats: int = 1) -> None:
        """Time the kernel ``repeats`` times.

        Half of it is interpreter arithmetic, a set and a numpy sort, which
        slow down with the host the way the engines do. The other half walks
        a numpy array element by element and indexes a boolean array, as
        ``verify_maximum`` and the Karp-Sipser rounds do. Under contention that
        half slows down more. With ``each_cpu``, ``repeats`` times on each CPU.
        """
        if not self.each_cpu:
            self._sample(repeats)
            return
        home = os.sched_getaffinity(0)
        try:
            for cpu in sorted(home):
                os.sched_setaffinity(0, {cpu})
                self._sample(repeats)
        finally:
            os.sched_setaffinity(0, home)

    def _sample(self, repeats: int) -> None:
        for _ in range(repeats):
            start = time.perf_counter()
            seen = set()
            total = 0
            for i in range(15_000):
                total += i * i
                seen.add(i & 4095)
            self._data.copy().sort()
            for v in self._ids:
                if not self._mark[v]:
                    total += int(v)
            end = time.perf_counter()
            self.samples.append(((start + end) / 2, end - start))

    def scale(self, start: float | None = None, end: float | None = None) -> float:
        """Factor that turns a time measured in ``[start, end]`` into reference-host time.

        Without an interval, or with no sample near it, the factor of the
        whole run.
        """
        near = [] if start is None else [
            s for t, s in self.samples
            if start - self.window <= t <= end + self.window]
        return REFERENCE_CAL_S / median(near or [s for _, s in self.samples])


def scaled(value: float, unit: str, scale: float) -> float:
    """``value`` in reference-host terms: times times ``scale``, rates divided by it."""
    if unit in ("s", "ms"):
        return value * scale
    if unit in ("1/s", "Medges/s"):
        return value / scale
    return value


def metric(values: list[float], factors: list[float], unit: str, q: float = 50) -> list:
    """``[reported, n, measured]``: percentile ``q`` of the scaled and of the raw values."""
    reported = [scaled(v, unit, f) for v, f in zip(values, factors)]
    return [percentile(reported, q), len(values), percentile(values, q)]


def rate(durations: list[float], factors: list[float]) -> list:
    """``[reported, n, measured]`` ops per second of op time, for one closed-loop client."""
    n = len(durations)
    if not n:
        return [0.0, 0, 0.0]
    return [n / sum(d * f for d, f in zip(durations, factors)), n, n / sum(durations)]


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line in /proc/{pid}/status")


class Spans:
    """In-memory span recorder for one thread: name, start, end, parent, op id."""

    def __init__(self, lane: int = 0) -> None:
        self.lane = lane
        self.records: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: int):
        rec = {
            "id": len(self.records),
            "name": name,
            "op": op,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.records.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, op: int, parent: int, start: float, end: float) -> None:
        """Record an already-closed span (one read from the program's telemetry)."""
        self.records.append({
            "id": len(self.records), "name": name, "op": op,
            "parent": parent, "start": start, "end": end,
        })


def self_times(records: list[dict]) -> dict[int, dict[str, float]]:
    """Per op id: layer name -> self time (duration minus its children's)."""
    child_time: dict[int, float] = {}
    for rec in records:
        if rec["parent"] is not None:
            child_time[rec["parent"]] = (
                child_time.get(rec["parent"], 0.0) + rec["end"] - rec["start"]
            )
    out: dict[int, dict[str, float]] = {}
    for rec in records:
        own = rec["end"] - rec["start"] - child_time.get(rec["id"], 0.0)
        layers = out.setdefault(rec["op"], {})
        layers[rec["name"]] = layers.get(rec["name"], 0.0) + own
    return out


def write_trace_files(trace_dir: Path, workload: str, lanes: list[Spans]) -> None:
    """Write a Chrome trace and a per-layer self-time table for one run."""
    trace_dir.mkdir(parents=True, exist_ok=True)
    events = []
    totals: dict[str, float] = {}
    ops = 0
    for spans in lanes:
        origin = min((r["start"] for r in spans.records), default=0.0)
        for rec in spans.records:
            events.append({
                "name": rec["name"], "ph": "X", "pid": 1, "tid": spans.lane,
                "ts": (rec["start"] - origin) * 1e6,
                "dur": (rec["end"] - rec["start"]) * 1e6,
                "args": {"op": rec["op"]},
            })
        for layers in self_times(spans.records).values():
            ops += 1
            for name, seconds in layers.items():
                totals[name] = totals.get(name, 0.0) + seconds
    with open(trace_dir / f"{workload}.trace.json", "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
    whole = sum(totals.values())
    lines = [f"{workload}: self time per layer over {ops} traced ops",
             f"{'layer':<24}{'total_s':>12}{'per_op_ms':>12}{'share':>9}"]
    for name, seconds in sorted(totals.items(), key=lambda kv: -kv[1]):
        share = seconds / whole if whole else 0.0
        lines.append(f"{name:<24}{seconds:>12.4f}{seconds / max(ops, 1) * 1e3:>12.3f}"
                     f"{share:>9.1%}")
    (trace_dir / f"{workload}.layers.txt").write_text("\n".join(lines) + "\n",
                                                       encoding="utf-8")
