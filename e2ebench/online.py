"""The online-churn workload: the matching daemon under two closed-loop clients.

The daemon runs as ``python -m repro.cli serve`` in its own process. Each of
two client threads owns one session (N X vertices, N + N/50 Y vertices, 4N
random base edges) and its own connection, and loops: one ``update`` of 32
edits (70% inserts of new random edges, 30% deletes of live edges), then a
cardinality-only ``match``. Each client keeps its own copy of its session's
edge set and checks every returned cardinality against scipy's maximum
matching of that copy before its next request.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import harness
import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from repro.errors import ServiceError
from repro.service.online import OnlineClient

ONLINE_N = 2000
"""X vertices of a session. At 20000 one ``create`` took about 12 s and one
repair about 3 s, leaving too few requests in a run."""
BASE_EDGES_PER_VERTEX = 4
BATCH = 32
DELETE_SHARE = 0.3
CLIENTS = 2
"""Closed-loop clients, one per core of the 2-core hosts the load is sized for."""
READY_TIMEOUT = 60.0
PAUSE_EVERY_S = 0.5


class OracleMismatch(Exception):
    """A cardinality the daemon returned is not the maximum."""


def session_size(scale: int) -> int:
    """N for ``--scale``: full size at the default scale, shrunk for smoke runs."""
    if scale >= harness.DEFAULT_SCALE:
        return ONLINE_N
    return max(64, ONLINE_N >> (harness.DEFAULT_SCALE - scale))


class EdgeModel:
    """The client's copy of one session's edge set.

    Y has 2% more vertices than X. On square sessions whether the free X
    vertices sit in one large alternating region depends on the seed, and
    every repair's final sweep costs twice as much on the seeds where they
    do; with spare Y vertices the sweep stays small on every seed.
    """

    def __init__(self, n: int, rng: np.random.Generator) -> None:
        self.n_x = n
        self.n_y = n + n // 50
        self.live: list[tuple[int, int]] = []
        self.index: dict[tuple[int, int], int] = {}
        while len(self.live) < BASE_EDGES_PER_VERTEX * n:
            self._add(self._random_edge(rng))

    def _random_edge(self, rng: np.random.Generator) -> tuple[int, int]:
        return int(rng.integers(self.n_x)), int(rng.integers(self.n_y))

    def _add(self, edge: tuple[int, int]) -> bool:
        if edge in self.index:
            return False
        self.index[edge] = len(self.live)
        self.live.append(edge)
        return True

    def _remove_at(self, i: int) -> tuple[int, int]:
        edge, last = self.live[i], self.live.pop()
        del self.index[edge]
        if i < len(self.live):
            self.live[i] = last
            self.index[last] = i
        return edge

    def edits(self, rng: np.random.Generator) -> tuple[list, list]:
        """One batch, applied to the model: ``(inserts, deletes)``."""
        deletes = [self._remove_at(int(rng.integers(len(self.live))))
                   for _ in range(int(round(BATCH * DELETE_SHARE)))]
        gone = set(deletes)
        inserts = []
        while len(inserts) < BATCH - len(deletes):
            edge = self._random_edge(rng)
            if edge not in gone and self._add(edge):
                inserts.append(edge)
        return inserts, deletes

    def maximum(self) -> int:
        """Maximum matching cardinality of the model, by scipy."""
        xs, ys = np.asarray(self.live, dtype=np.int64).T
        matrix = csr_matrix((np.ones(xs.size, dtype=np.int8), (xs, ys)),
                            shape=(self.n_x, self.n_y))
        return int((maximum_bipartite_matching(matrix, perm_type="column") >= 0).sum())


class Daemon:
    """``repro-match serve`` in a child process, reached over a Unix socket."""

    def __init__(self, socket_path: str, env: dict) -> None:
        self.socket_path = socket_path
        # A killed daemon leaves its socket file behind; a client must not
        # mistake it for the next daemon's.
        Path(socket_path).unlink(missing_ok=True)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--socket", socket_path],
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)

    def connect(self) -> OnlineClient:
        """Wait until the daemon answers a ping; returns that connection."""
        deadline = time.perf_counter() + READY_TIMEOUT
        while True:
            try:
                client = OnlineClient(self.socket_path, timeout=READY_TIMEOUT)
                break
            # The socket file appears when the daemon binds, a moment before
            # it listens; connecting in between is refused.
            except (FileNotFoundError, ConnectionRefusedError):
                if self.proc.poll() is not None or time.perf_counter() > deadline:
                    raise RuntimeError(f"daemon did not listen on {self.socket_path}") from None
                time.sleep(0.002)
        client.ping()
        return client

    def stop(self, client: OnlineClient | None) -> None:
        try:
            if client is not None and self.proc.poll() is None:
                try:
                    client.shutdown_server()
                except ServiceError:
                    # The daemon can exit before its handler thread writes the
                    # reply to ``shutdown``; the wait below still sees it stop.
                    pass
                self.proc.wait(timeout=30)
        finally:
            if client is not None:
                client.close()
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()


class Pauses:
    """Stops both clients together every ``PAUSE_EVERY_S`` to probe the host.

    The probe runs once both clients have finished their cycle, so the daemon
    is idle and nothing of the benchmark competes with it. A probe beside the
    running clients would be slowed by their own work, which grows with the
    request rate. The daemon and the clients use every CPU, so the probe runs
    on each. Each pause costs about half a cycle of one client's waiting plus
    15 ms of probing per CPU.
    """

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.cal = harness.Calibration(window=PAUSE_EVERY_S * 0.6, each_cpu=True)
        self.start = 0.0
        self.barrier = threading.Barrier(CLIENTS, action=self._probe, timeout=READY_TIMEOUT)

    def _probe(self) -> None:
        self.cal.sample(3)
        if not self.start:
            self.start = time.perf_counter()

    def due(self, k: int) -> bool:
        return time.perf_counter() >= self.start + k * PAUSE_EVERY_S

    def last(self, k: int) -> bool:
        return k * PAUSE_EVERY_S >= self.seconds


def _client_loop(idx: int, socket_path: str, model: EdgeModel, rng: np.random.Generator,
                 pauses: Pauses, traced: bool, out: dict) -> None:
    """One closed-loop client; fills ``out`` with its samples and failures."""
    session = f"s{idx}"
    spans = harness.Spans(lane=idx)
    cycles = []
    out.update(attempted=0, failed=0, cycles=cycles, spans=spans)
    try:
        with OnlineClient(socket_path, timeout=READY_TIMEOUT) as client:
            pauses.barrier.wait()
            i, k = 0, 1
            while True:
                if pauses.due(k):
                    pauses.barrier.wait()
                    if pauses.last(k):
                        break
                    k += 1
                    continue
                inserts, deletes = model.edits(rng)
                traced_cycle = traced and i % 2 == 1
                i += 1
                out["attempted"] += 1
                if traced_cycle:
                    with spans.span("op", i):
                        with spans.span("update", i) as upd:
                            update = client.update(session, inserts, deletes)
                        with spans.span("match", i) as rd:
                            read = client.match(session)
                    # The daemon reports how long its repair took, not when it
                    # ran; the span is placed at the end of the request.
                    spans.add("repair", i, upd["id"],
                              upd["end"] - update["repair_seconds"], upd["end"])
                    t0, t1, t2 = upd["start"], upd["end"], rd["end"]
                else:
                    t0 = time.perf_counter()
                    update = client.update(session, inserts, deletes)
                    t1 = time.perf_counter()
                    read = client.match(session)
                    t2 = time.perf_counter()
                expected = model.maximum()
                if update["cardinality"] != expected or read["cardinality"] != expected:
                    raise OracleMismatch(
                        f"{session}: daemon says {update['cardinality']}/"
                        f"{read['cardinality']}, scipy finds {expected}")
                cycles.append({
                    "traced": traced_cycle, "t0": t0, "t2": t2,
                    "update": t1 - t0, "read": t2 - t1,
                    "cycle": t2 - t0, "repair": update["repair_seconds"],
                    "sweeps": update["bfs_rounds"], "augmented": update["augmented"],
                    "skipped": update["skipped"], "edits": len(inserts) + len(deletes),
                })
    except threading.BrokenBarrierError:
        pass  # the other client failed and stopped the run; its failure is counted
    except Exception:  # noqa: BLE001 - an error response or a wrong answer
        pauses.barrier.abort()
        out["failed"] += 1
        traceback.print_exc()


def make_inputs(seed: int, scale: int) -> tuple[list[EdgeModel], list[np.random.Generator]]:
    """Each client's base graph and the generator of its edits; a function of the seed."""
    n = session_size(scale)
    rngs = [np.random.default_rng([seed, 11, idx]) for idx in range(CLIENTS)]
    return [EdgeModel(n, rng) for rng in rngs], rngs


def run(seed: int, scale: int, seconds: float, traced: bool, workdir: Path,
        trace_dir: Path | None, env: dict) -> dict:
    """Set up (``SETUPS`` times unless traced), measure, check; returns the results."""
    workdir.mkdir(parents=True, exist_ok=True)
    socket_path = os.path.relpath(workdir / "daemon.sock")
    models, rngs = make_inputs(seed, scale)
    setups, creates = [], []
    # The window spans the probes on every CPU at each end of a set-up.
    setup_cal = harness.Calibration(window=1.0, each_cpu=True)
    daemon = admin = None
    try:
        for _ in range(1 if traced else harness.SETUPS):
            if daemon is not None:
                daemon.stop(admin)
            setup_cal.sample(harness.SETUP_PROBES)
            started = time.perf_counter()
            daemon, admin = Daemon(socket_path, env), None
            admin = daemon.connect()
            for idx, model in enumerate(models):
                t = time.perf_counter()
                admin.create(f"s{idx}", model.n_x, model.n_y, model.live)
                creates.append(time.perf_counter() - t)
            setups.append((started, time.perf_counter()))
            setup_cal.sample(harness.SETUP_PROBES)
        out = _measure(daemon, admin, models, rngs, seconds, traced, trace_dir)
    finally:
        if daemon is not None:
            daemon.stop(admin)
    out["setup_scale"] = setup_cal.scale()
    if traced:
        out["metrics"]["online.create_s"] = harness.metric(
            creates, [out["setup_scale"]] * len(creates), "s")
    else:
        out["metrics"]["setup_s"] = harness.metric(
            [end - begin for begin, end in setups],
            [setup_cal.scale(begin, end) for begin, end in setups], "s")
    return out


def _measure(daemon: Daemon, admin: OnlineClient, models, rngs, seconds, traced,
             trace_dir) -> dict:
    pauses = Pauses(seconds)
    outs = [{} for _ in range(CLIENTS)]
    threads = [threading.Thread(target=_client_loop, args=(
        idx, daemon.socket_path, models[idx], rngs[idx], pauses, traced, outs[idx]))
        for idx in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    cal = pauses.cal
    run_scale = cal.scale()
    attempted = sum(o["attempted"] for o in outs)
    failed = sum(o["failed"] for o in outs)
    verifies = []
    for idx, model in enumerate(models):
        attempted += 1
        t = time.perf_counter()
        final = admin.match(f"s{idx}", verify=True)
        verifies.append(time.perf_counter() - t)
        if final["cardinality"] != model.maximum():
            failed += 1
            print(f"s{idx}: final cardinality {final['cardinality']} is not the maximum",
                  file=sys.stderr)
    cycles = [c for o in outs for c in o["cycles"]]
    for c in cycles:
        c["factor"] = cal.scale(c["t0"], c["t2"])
    factors = [c["factor"] for c in cycles]
    k = len(cycles)
    out = {"attempted": attempted, "failed": failed, "scale": run_scale,
           "labels": {"sessions": str(CLIENTS),
                      "n": f"{models[0].n_x}x{models[0].n_y}"}}
    if not traced:
        rss = harness.peak_rss_mb(daemon.proc.pid)
        # Each client's cycles per second of its own cycle time, summed: the
        # pauses and each client's checks between its requests do not count.
        rates = [harness.rate([c["cycle"] for c in o["cycles"]],
                              [c["factor"] for c in o["cycles"]])
                 for o in outs]
        out["metrics"] = {
            "solve_ms": harness.metric([c["update"] * 1e3 for c in cycles], factors, "ms"),
            "op_ms": harness.metric([c["cycle"] * 1e3 for c in cycles], factors, "ms"),
            "ops_per_s": [sum(r[0] for r in rates), k, sum(r[2] for r in rates)],
            "peak_rss_mb": [rss, 1, rss],
        }
        return out
    repair = [c["repair"] * 1e3 for c in cycles]
    wait = [(c["update"] - c["repair"]) * 1e3 for c in cycles]
    read = [c["read"] * 1e3 for c in cycles]
    traced_cycles = [c["cycle"] for c in cycles if c["traced"]]
    plain_cycle = harness.median([c["cycle"] for c in cycles if not c["traced"]])
    overhead = harness.median(traced_cycles) / plain_cycle - 1.0 if plain_cycle else 0.0
    coverage = (sum(c["update"] + c["read"] for c in cycles)
                / max(sum(c["cycle"] for c in cycles), 1e-12))
    sweeps = harness.mean([c["sweeps"] for c in cycles])
    augmented = harness.mean([c["augmented"] for c in cycles])
    skipped = sum(c["skipped"] for c in cycles) / max(sum(c["edits"] for c in cycles), 1)
    metrics = {name: [0.0, 0, 0.0] for name in harness.PER_LAYER_UNITS}
    metrics.update({
        "incremental.repair_ms_p50": harness.metric(repair, factors, "ms", 50),
        "incremental.repair_ms_p90": harness.metric(repair, factors, "ms", 90),
        "incremental.sweeps_mean": [sweeps, k, sweeps],
        "incremental.augmented_mean": [augmented, k, augmented],
        "incremental.skipped_frac": [skipped, k, skipped],
        "online.wait_ms_p50": harness.metric(wait, factors, "ms", 50),
        "online.wait_ms_p90": harness.metric(wait, factors, "ms", 90),
        "online.read_ms_p50": harness.metric(read, factors, "ms", 50),
        "online.read_ms_p90": harness.metric(read, factors, "ms", 90),
        "online.verify_s": harness.metric(verifies, [run_scale] * len(verifies), "s"),
        "trace.overhead": [overhead, len(traced_cycles), overhead],
        "trace.coverage": [coverage, k, coverage],
    })
    out["metrics"] = metrics
    out["coverage_ok"] = True
    if trace_dir is not None:
        harness.write_trace_files(trace_dir, "online-churn", [o["spans"] for o in outs])
    return out
