"""Process-parallel shared-memory backend for MS-BFS-Graft (``engine="mp"``).

This is the first backend that can use more than one core for real: the 2D
tile engine's decomposition (contiguous frontier / row chunks, one owner
per chunk) is mapped onto a pool of ``multiprocessing`` workers that attach
**zero-copy** to a single ``multiprocessing.shared_memory`` segment holding

* the immutable CSR arrays (``x_ptr``/``x_adj`` for top-down,
  ``y_ptr``/``y_adj`` for bottom-up),
* the read-shared forest arrays workers scan against — the bit-packed
  ``visited_words`` mirror, ``root_x``, and ``leaf``,
* a task buffer the master publishes each level's frontier / row set into,
* and one private output region per worker for its claim candidates.

The execution model is **master-commit / worker-scan** BSP: inside a level
(a superstep) workers only *read* shared state and *write* their own
private regions; every mutation of the forest happens on the master, at
the barrier, through the same sanctioned channels the numpy engine uses —
``ForestState.mark_visited`` plus :func:`repro.core.kernels.apply_claims`
— with the shared-buffer writes routed through the ``@superstep_commit``
helpers of :mod:`repro.distributed.commit`. That makes the backend
REP004-clean by construction and genuinely race-free: there is no write
concurrent with anything.

Determinism: chunks are contiguous and merged in worker order, so the
concatenated claim stream equals the single-process frontier-order stream,
and the global first-writer-wins resolution picks identical winners for
every worker count — the phase/level trajectory and final matching are
bit-identical to the numpy engine's (the differential and determinism
tests pin this). See ``docs/multicore.md`` for the layout and protocol.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import tempfile
import time
from dataclasses import replace
from multiprocessing.shared_memory import SharedMemory

import numpy as np

from repro.core import kernels
from repro.core.bitset import bitset_words
from repro.core.engine_loop import run_phases
from repro.core.engine_numpy import NumpySteps
from repro.core.forest import ForestState
from repro.core.options import GraftOptions
from repro.distributed.commit import (
    commit_task,
    commit_worker_claims,
    commit_worker_costs,
)
from repro.errors import DeadlineExceeded, ReproError, WorkerCrashed
from repro.graph.csr import INDEX_DTYPE, BipartiteCSR
from repro.matching.base import UNMATCHED, MatchResult, Matching
from repro.telemetry.flight import FlightRecorder
from repro.telemetry.session import NULL_TELEMETRY
from repro.telemetry.worker import WorkerRecorder, merge_worker_traces

DEFAULT_WORKERS = 2
"""Worker count when ``engine="mp"`` is requested without one."""

MIN_LEVEL_ITEMS = 2048
"""Per-level scatter floor: a level with fewer work items than this runs
on the master with the ordinary numpy kernels instead of paying the pipe
round-trip. Safe for determinism — both paths compute the identical
level-synchronous result — and the common case on small graphs, where the
pool exists but the barriers would dominate. Tests force full distribution
with ``min_level_items=0``."""

_SHM_PREFIX = "repro_mp_"

_segment_seq = itertools.count()


def _create_segment(size: int) -> SharedMemory:
    """A named segment (``repro_mp_<pid>_<seq>``), not an anonymous
    ``psm_*`` one: the name is greppable in ``/dev/shm``, which is what
    lets the leak-check fixture assert precise cleanup after crashes."""
    while True:
        name = f"{_SHM_PREFIX}{os.getpid()}_{next(_segment_seq)}"
        try:
            return SharedMemory(create=True, size=size, name=name)
        except FileExistsError:
            continue


def default_start_method() -> str:
    """``fork`` where the platform offers it (cheap worker spawn, shared
    page cache), the platform default otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else multiprocessing.get_start_method()


# --------------------------------------------------------------------------- #
# shared-segment layout
# --------------------------------------------------------------------------- #
# One segment, fixed offset table. Every field is 8-byte (int64/uint64), so
# natural alignment holds with plain offset accumulation. The layout is a
# plain list of (name, offset, count, dtype-name) tuples — picklable, so the
# spawn start method can ship it to workers that re-attach by segment name.


def _build_layout(
    graph: BipartiteCSR, workers: int
) -> tuple[list[tuple[str, int, int, str]], int]:
    n_x, n_y, nnz = graph.n_x, graph.n_y, graph.nnz
    out_len = max(n_y, 1)
    fields: list[tuple[str, int, int, str]] = []
    offset = 0

    def add(name: str, count: int, dtype: str) -> None:
        nonlocal offset
        fields.append((name, offset, count, dtype))
        offset += count * 8

    add("x_ptr", n_x + 1, "int64")
    add("x_adj", nnz, "int64")
    add("y_ptr", n_y + 1, "int64")
    add("y_adj", nnz, "int64")
    add("visited_words", int(bitset_words(n_y).shape[0]), "uint64")
    add("root_x", n_x, "int64")
    add("leaf", n_x, "int64")
    add("task", max(n_x, n_y, 1), "int64")
    for w in range(workers):
        add(f"out_y{w}", out_len, "int64")
        add(f"out_x{w}", out_len, "int64")
        add(f"out_c{w}", out_len, "int64")
    return fields, max(offset, 8)


def _attach(shm: SharedMemory, layout: list[tuple[str, int, int, str]]):
    return {
        name: np.ndarray((count,), dtype=np.dtype(dtype), buffer=shm.buf, offset=off)
        for name, off, count, dtype in layout
    }


def _chunk_bounds(n: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous near-equal chunks ``[lo, hi)``, one per worker, in rank
    order — concatenating per-chunk results in rank order therefore
    reproduces the original item order exactly."""
    base, extra = divmod(n, workers)
    bounds = []
    lo = 0
    for w in range(workers):
        hi = lo + base + (1 if w < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


# --------------------------------------------------------------------------- #
# worker side
# --------------------------------------------------------------------------- #


def _scan_topdown(x_ptr, x_adj, visited_words, frontier, out_y, out_x, ws):
    """One worker's share of a top-down level: gather the chunk's adjacency,
    pre-check the shared visited bitset, resolve claims first-writer-wins
    *within the chunk*, and deposit the candidates in the private region.

    Returns ``(claims, edges, attempts)`` — attempts counts every unvisited
    target seen (the CAS tries the single-process kernel would count), so
    the master-side sums match the numpy engine's statistics exactly.
    """
    src, dst, _offsets = kernels._gather_segments(x_ptr, x_adj, frontier, ws=ws)
    edges = int(dst.shape[0])
    if edges:
        unvis = ~kernels.bitset_test(visited_words, dst)
        src_u = src[unvis]
        dst_u = dst[unvis]
    else:
        src_u = dst_u = np.empty(0, dtype=INDEX_DTYPE)
    attempts = int(dst_u.shape[0])
    if attempts:
        win = kernels.first_claim(dst_u, ws.slot_y, ws)
        winners = dst_u[win]
        sources = src_u[win]
    else:
        winners = np.empty(0, dtype=INDEX_DTYPE)
        sources = np.empty(0, dtype=INDEX_DTYPE)
    commit_worker_claims(out_y, out_x, winners, sources)
    return int(winners.shape[0]), edges, attempts


def _scan_bottomup(y_ptr, y_adj, root_x, leaf, rows, chunk, out_y, out_x, out_c, ws):
    """One worker's share of a bottom-up / grafting level.

    Port of the chunked early-exit scan in
    :func:`repro.core.kernels.bottomup_level`, reading tree membership from
    the *shared* ``root_x``/``leaf`` arrays. ``chunk`` is the globally
    computed starting chunk size — passed in by the master so per-row scan
    costs (and therefore the edges-traversed counters) are independent of
    how the row set was partitioned across workers.
    """
    n = int(rows.shape[0])
    row_start = y_ptr[rows]
    deg_all = y_ptr[rows + 1] - row_start
    claim_of = np.full(n, UNMATCHED, dtype=INDEX_DTYPE)
    scanned = np.zeros(n, dtype=np.int64) if out_c is not None else None
    edges = 0
    idx_l = np.flatnonzero(deg_all > 0)
    start_l = row_start[idx_l]
    rem_l = deg_all[idx_l]
    while idx_l.size:
        take = np.minimum(rem_l, chunk)
        slot, offsets, total = kernels._segment_slots(start_l, take, ws)
        dst = y_adj[slot]
        if total:
            rx = root_x[dst]
            safe = np.where(rx >= 0, rx, 0)
            active_edge = (rx != UNMATCHED) & (leaf[safe] == UNMATCHED)
        else:
            active_edge = np.empty(0, dtype=bool)
        hit_positions = np.flatnonzero(active_edge)
        starts = offsets[:-1]
        if hit_positions.size:
            pos = np.searchsorted(hit_positions, starts)
            safe_pos = np.minimum(pos, hit_positions.shape[0] - 1)
            first_edge = hit_positions[safe_pos]
            has_hit = (pos < hit_positions.shape[0]) & (first_edge < offsets[1:])
            cost = np.where(has_hit, first_edge - starts + 1, take)
            claim_of[idx_l[has_hit]] = dst[first_edge[has_hit]]
        else:
            has_hit = None
            cost = take
        edges += int(cost.sum())
        if scanned is not None:
            scanned[idx_l] += cost
        keep = rem_l > take if has_hit is None else ~has_hit & (rem_l > take)
        idx_l = idx_l[keep]
        start_l = (start_l + take)[keep]
        rem_l = (rem_l - take)[keep]
        chunk *= 4
    has = claim_of != UNMATCHED
    winners = rows[has]
    sources = claim_of[has]
    commit_worker_claims(out_y, out_x, winners, sources)
    if out_c is not None:
        commit_worker_costs(out_c, scanned)
    return int(winners.shape[0]), edges


def _worker_main(conn, shm_name, layout, n_x, n_y, nnz, windex):
    """Worker loop: attach to the segment by name, then serve chunk
    descriptors until told to stop. All shared state is read-only here;
    the only writes go to this worker's private output regions.

    ``trace_start``/``trace_stop`` bracket an optional span recorder
    (:class:`~repro.telemetry.worker.WorkerRecorder`): while active, the
    worker tiles its own timeline with ``worker_idle`` spans (blocked on
    the command pipe) and ``worker_scan`` spans (one per superstep), which
    the master later merges into its tracer as this pid's lane. With no
    recorder the loop pays one ``is not None`` check per command and
    allocates nothing — telemetry off stays free.
    """
    # Workers started through ctx.Process share the master's resource
    # tracker (the tracker fd travels with both fork and spawn), and the
    # tracker's cache is a set — so the attach below re-registering the
    # segment name is a harmless duplicate, and the master's single unlink
    # retires it exactly once. Explicitly unregistering here instead would
    # double-remove and make the tracker warn (cpython gh-82300 is about
    # independently *started* trackers, which this layout never creates).
    shm = SharedMemory(name=shm_name)
    recorder = None
    try:
        arrays = _attach(shm, layout)
        x_ptr, x_adj = arrays["x_ptr"], arrays["x_adj"]
        y_ptr, y_adj = arrays["y_ptr"], arrays["y_adj"]
        visited_words = arrays["visited_words"]
        root_x, leaf = arrays["root_x"], arrays["leaf"]
        task = arrays["task"]
        out_y = arrays[f"out_y{windex}"]
        out_x = arrays[f"out_x{windex}"]
        out_c = arrays[f"out_c{windex}"]
        ws = kernels.KernelWorkspace(n_x, n_y, nnz)
        ws.want_costs = False
        ready = 0.0
        while True:
            msg = conn.recv()
            now = time.perf_counter() if recorder is not None else 0.0
            cmd = msg[0]
            if cmd == "stop":
                break
            if cmd == "trace_start":
                if recorder is not None:
                    recorder.close()
                recorder = WorkerRecorder(msg[1], windex)
                conn.send(("ok", 0, 0, 0))
                ready = time.perf_counter()
                continue
            if cmd == "trace_stop":
                if recorder is not None:
                    recorder.record("worker_idle", ready, time.perf_counter())
                    recorder.close()
                    recorder = None
                conn.send(("ok", 0, 0, 0))
                continue
            if recorder is not None:
                recorder.record("worker_idle", ready, now)
            if cmd == "topdown":
                _, lo, hi = msg
                claims, edges, attempts = _scan_topdown(
                    x_ptr, x_adj, visited_words, task[lo:hi], out_y, out_x, ws
                )
                if recorder is not None:
                    recorder.record(
                        "worker_scan", now, time.perf_counter(),
                        kind="topdown", items=hi - lo,
                        claims=claims, edges=edges,
                    )
                conn.send(("ok", claims, edges, attempts))
            elif cmd == "bottomup":
                _, lo, hi, chunk, want_costs = msg
                claims, edges = _scan_bottomup(
                    y_ptr, y_adj, root_x, leaf, task[lo:hi], chunk,
                    out_y, out_x, out_c if want_costs else None, ws,
                )
                if recorder is not None:
                    recorder.record(
                        "worker_scan", now, time.perf_counter(),
                        kind="bottomup", items=hi - lo,
                        claims=claims, edges=edges,
                    )
                conn.send(("ok", claims, edges, 0))
            else:
                conn.send(("error", f"unknown command {cmd!r}", 0, 0))
            if recorder is not None:
                ready = time.perf_counter()
    except (EOFError, BrokenPipeError, KeyboardInterrupt):
        pass  # master went away or interrupted: exit quietly
    finally:
        if recorder is not None:
            recorder.close()
        # Release every view before closing the mapping (BufferError else).
        arrays = None
        x_ptr = x_adj = y_ptr = y_adj = None
        visited_words = root_x = leaf = task = None
        out_y = out_x = out_c = None
        conn.close()
        shm.close()


# --------------------------------------------------------------------------- #
# master side
# --------------------------------------------------------------------------- #


class ProcPool:
    """A pool of persistent worker processes sharing one memory segment.

    The master creates (and alone unlinks) the segment, copies the CSR in
    once, and spawns ``workers`` children that attach by name. One pipe per
    worker carries chunk descriptors down and ``("ok", claims, edges,
    attempts)`` replies up; the reply set *is* the phase barrier. Claim
    payloads never travel through the pipes — they land in each worker's
    private region of the shared segment.

    Use as a context manager (or call :meth:`close`); the segment is
    unlinked exactly once, in ``close``, even after worker crashes.
    """

    def __init__(
        self,
        graph: BipartiteCSR,
        workers: int = DEFAULT_WORKERS,
        *,
        start_method: str | None = None,
    ) -> None:
        workers = int(workers)
        if workers < 1:
            raise ReproError(f"worker count must be >= 1, got {workers}")
        self.graph = graph
        self.workers = workers
        self.telemetry = NULL_TELEMETRY
        """Master-side telemetry for superstep/barrier instrumentation;
        assigned (and reset) by :func:`run_mp` around each run so an
        injected, reused pool never keeps a stale session."""
        self._superstep = 0
        self._trace_paths: list | None = None
        self._closed = False
        self._procs: list = []
        self._conns: list = []
        self._shm = None
        self._arrays = None
        self.visited_words = self.root_x = self.leaf = self.task = None
        self._out_y = self._out_x = self._out_c = None
        layout, total = _build_layout(graph, workers)
        ctx = multiprocessing.get_context(start_method or default_start_method())
        try:
            self._shm = _create_segment(total)
            arrays = _attach(self._shm, layout)
            arrays["x_ptr"][:] = graph.x_ptr
            arrays["x_adj"][:] = graph.x_adj
            arrays["y_ptr"][:] = graph.y_ptr
            arrays["y_adj"][:] = graph.y_adj
            arrays["visited_words"][:] = 0
            arrays["root_x"][:] = UNMATCHED
            arrays["leaf"][:] = UNMATCHED
            self._arrays = arrays
            self.visited_words = arrays["visited_words"]
            self.root_x = arrays["root_x"]
            self.leaf = arrays["leaf"]
            self.task = arrays["task"]
            self._out_y = [arrays[f"out_y{w}"] for w in range(workers)]
            self._out_x = [arrays[f"out_x{w}"] for w in range(workers)]
            self._out_c = [arrays[f"out_c{w}"] for w in range(workers)]
            self.workspace = kernels.KernelWorkspace.for_graph(graph)
            for w in range(workers):
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker_main,
                    args=(
                        child_conn, self._shm.name, layout,
                        graph.n_x, graph.n_y, graph.nnz, w,
                    ),
                    name=f"repro-mp-worker-{w}",
                    daemon=True,
                )
                proc.start()
                # The child inherited (fork) or received (spawn) its end;
                # close the master's copy so a dead worker turns into a
                # clean EOF on the master's recv instead of a hang.
                child_conn.close()
                self._procs.append(proc)
                self._conns.append(parent_conn)
        except Exception:
            self.close()
            raise

    # -- lifecycle ------------------------------------------------------- #

    @property
    def segment_name(self) -> str:
        return self._shm.name if self._shm is not None else ""

    def worker_pids(self) -> list:
        return [proc.pid for proc in self._procs]

    def close(self) -> None:
        """Stop workers and unlink the segment. Idempotent; crash-safe."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
            conn.close()
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
        self._conns = []
        self._procs = []
        # Drop every numpy view before closing the mapping: SharedMemory
        # refuses to release a buffer that still has exported views.
        self._arrays = None
        self.visited_words = self.root_x = self.leaf = self.task = None
        self._out_y = self._out_x = self._out_c = None
        if self._shm is not None:
            shm, self._shm = self._shm, None
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:
                pass

    def __enter__(self) -> "ProcPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass  # interpreter shutdown: never raise from a finalizer

    # -- worker tracing --------------------------------------------------- #

    def start_worker_tracing(self, trace_dir) -> list:
        """Tell every worker to start span recording; returns the paths.

        Each worker gets a private JSONL file under ``trace_dir`` (no
        cross-process writer contention). The acknowledgement round-trip
        makes the start a barrier, so no scan span can predate its lane.
        """
        if self._closed:
            raise ReproError("ProcPool is closed")
        paths = [
            os.path.join(str(trace_dir), f"worker-{w}.jsonl")
            for w in range(self.workers)
        ]
        self._control_roundtrip(
            [("trace_start", path) for path in paths], tolerant=False
        )
        self._trace_paths = paths
        return paths

    def stop_worker_tracing(self) -> list:
        """Stop recording and return the trace paths (ack = all flushed).

        Tolerates dead workers: a crashed worker cannot ack, but its file
        holds every span it flushed before dying, so the caller can still
        merge the survivors' lanes.
        """
        paths = self._trace_paths or []
        self._trace_paths = None
        if paths and not self._closed:
            self._control_roundtrip(
                [("trace_stop",)] * self.workers, tolerant=True
            )
        return paths

    def _control_roundtrip(self, messages, *, tolerant: bool) -> None:
        """Send one control message per worker and collect the acks."""
        for conn, message in zip(self._conns, messages):
            try:
                conn.send(message)
            except (BrokenPipeError, OSError) as exc:
                if not tolerant:
                    raise WorkerCrashed(
                        f"mp worker pipe closed mid-send: {exc}"
                    ) from exc
        for w, conn in enumerate(self._conns):
            try:
                conn.recv()
            except (EOFError, BrokenPipeError, OSError) as exc:
                if not tolerant:
                    raise WorkerCrashed(
                        f"mp worker {w} (pid {self._procs[w].pid}) died during "
                        f"trace control"
                    ) from exc

    # -- barrier-delimited supersteps ------------------------------------ #

    def _scatter_gather(self, messages, kind: str = "scan", items: int = 0):
        """Send one descriptor per worker; the full reply set is the
        barrier. A dead worker (closed pipe) raises :class:`WorkerCrashed`,
        which the service layer treats as transient and degrades on.

        When :attr:`telemetry` is live, each call opens a ``superstep``
        span with a ``barrier_wait`` child timing the reply gather — the
        per-superstep barrier cost the paper's scalability analysis is
        about. With :data:`NULL_TELEMETRY` both hooks return a shared
        no-op context, so the disabled path allocates nothing.
        """
        if self._closed:
            raise ReproError("ProcPool is closed")
        tel = self.telemetry
        step = self._superstep
        self._superstep += 1
        with tel.superstep_span(kind, items, step):
            for conn, message in zip(self._conns, messages):
                try:
                    conn.send(message)
                except (BrokenPipeError, OSError) as exc:
                    raise WorkerCrashed(
                        f"mp worker pipe closed mid-send: {exc}"
                    ) from exc
            replies = []
            with tel.barrier_wait(kind):
                for w, conn in enumerate(self._conns):
                    try:
                        reply = conn.recv()
                    except (EOFError, BrokenPipeError, OSError) as exc:
                        raise WorkerCrashed(
                            f"mp worker {w} (pid {self._procs[w].pid}) died "
                            f"mid-superstep"
                        ) from exc
                    if reply[0] != "ok":
                        raise ReproError(
                            f"mp worker {w} protocol error: {reply[1]}"
                        )
                    replies.append(reply[1:])
        return replies

    def topdown_superstep(self, frontier: np.ndarray):
        """Distribute one top-down level; return the *globally resolved*
        ``(winners, sources, edges, attempts)``.

        The caller must pass an active-tree-filtered frontier. Per-worker
        candidate streams are concatenated in rank order — equal to
        frontier order — and deduplicated with the same first-writer-wins
        scatter the single-process kernel uses, so the winners are
        identical for every worker count.
        """
        if self._closed:
            raise ReproError("ProcPool is closed")
        commit_task(self.task, frontier)
        bounds = _chunk_bounds(int(frontier.shape[0]), self.workers)
        replies = self._scatter_gather(
            [("topdown", lo, hi) for lo, hi in bounds],
            kind="topdown", items=int(frontier.shape[0]),
        )
        edges = sum(r[1] for r in replies)
        attempts = sum(r[2] for r in replies)
        parts_y = [self._out_y[w][: replies[w][0]] for w in range(self.workers)]
        parts_x = [self._out_x[w][: replies[w][0]] for w in range(self.workers)]
        winners = np.concatenate(parts_y) if parts_y else np.empty(0, INDEX_DTYPE)
        sources = np.concatenate(parts_x) if parts_x else np.empty(0, INDEX_DTYPE)
        if winners.size:
            win = kernels.first_claim(winners, self.workspace.slot_y, self.workspace)
            winners = winners[win]
            sources = sources[win]
        return winners, sources, edges, attempts

    def bottomup_superstep(self, rows: np.ndarray, chunk: int, want_costs: bool):
        """Distribute one bottom-up / grafting level; return
        ``(winners, sources, edges, costs)`` with rows in original order.

        Bottom-up rows are distinct by construction (each Y row claims for
        itself), so no cross-worker resolution is needed — rank-order
        concatenation already is the global result.
        """
        if self._closed:
            raise ReproError("ProcPool is closed")
        commit_task(self.task, rows)
        bounds = _chunk_bounds(int(rows.shape[0]), self.workers)
        replies = self._scatter_gather(
            [("bottomup", lo, hi, int(chunk), bool(want_costs)) for lo, hi in bounds],
            kind="bottomup", items=int(rows.shape[0]),
        )
        edges = sum(r[1] for r in replies)
        parts_y = [self._out_y[w][: replies[w][0]] for w in range(self.workers)]
        parts_x = [self._out_x[w][: replies[w][0]] for w in range(self.workers)]
        winners = np.concatenate(parts_y) if parts_y else np.empty(0, INDEX_DTYPE)
        sources = np.concatenate(parts_x) if parts_x else np.empty(0, INDEX_DTYPE)
        if want_costs:
            costs = np.concatenate(
                [self._out_c[w][: hi - lo] for w, (lo, hi) in enumerate(bounds)]
            ) if bounds else np.empty(0, np.int64)
        else:
            costs = None
        return winners, sources, edges, costs


# --------------------------------------------------------------------------- #
# the engine
# --------------------------------------------------------------------------- #


def run_mp(
    graph: BipartiteCSR,
    initial: Matching | None,
    options: GraftOptions,
    *,
    workers: int = DEFAULT_WORKERS,
    min_level_items: int = MIN_LEVEL_ITEMS,
    pool: ProcPool | None = None,
    start_method: str | None = None,
) -> MatchResult:
    """MS-BFS-Graft on a local shared-memory process pool.

    Level-for-level identical to :func:`repro.core.engine_numpy.run_numpy`
    — same direction rule, same claim resolution order, same grafting
    policy — with the heavy levels scattered across ``workers`` processes.
    Levels below ``min_level_items`` work items run on the master (the
    barrier would cost more than the scan); both paths produce the same
    result, so the trajectory is invariant under the choice.

    ``pool`` lets callers inject (and reuse or sabotage) a
    :class:`ProcPool`; an injected pool is *not* closed on return. The
    internally created pool — and its shared segment — is always torn down,
    also on :class:`~repro.errors.DeadlineExceeded` and worker crashes.
    """
    start = time.perf_counter()
    tel = options.telemetry if options.telemetry is not None else NULL_TELEMETRY
    own_pool = pool is None
    if own_pool:
        pool = ProcPool(graph, workers, start_method=start_method)
    elif pool.graph is not graph and (
        pool.graph.n_x != graph.n_x
        or pool.graph.n_y != graph.n_y
        or pool.graph.nnz != graph.nnz
    ):
        raise ReproError("injected ProcPool was built for a different graph")
    state = ForestState.for_graph(graph)
    # Master-side superstep/barrier instrumentation + worker-lane tracing.
    # Both are scoped to this run and reset in the finally, so an injected
    # pool reused across runs never carries a stale telemetry session.
    pool.telemetry = tel
    pool._superstep = 0  # per-run numbering, also on injected reused pools
    trace_tmp = None
    worker_trace_paths: list = []
    if tel.enabled:
        trace_tmp = tempfile.TemporaryDirectory(prefix="repro-mp-trace-")
        worker_trace_paths = pool.start_worker_tracing(trace_tmp.name)
    # The flight recorder exists only when a dump destination is
    # configured: a bounded ring of per-level events, written out as
    # post-mortem JSONL if a worker dies or the deadline expires.
    flight = FlightRecorder() if options.flight_dir is not None else None
    if flight is not None:
        flight.record(
            "run_start", engine="mp", workers=pool.workers,
            n_x=graph.n_x, n_y=graph.n_y, nnz=graph.nnz,
            segment=pool.segment_name, pids=pool.worker_pids(),
        )
    threshold = max(int(min_level_items), pool.workers)
    try:
        result = run_phases(
            "mp", graph, initial, options,
            lambda matching, counters: _MpSteps(
                graph, matching, options, state, pool, threshold, flight, counters
            ),
        )
        if worker_trace_paths:
            # Drain the per-worker span files into the master tracer so the
            # Chrome export shows one lane per worker pid next to the
            # master's superstep spans (same CLOCK_MONOTONIC time base).
            pool.stop_worker_tracing()
            merge_worker_traces(tel.tracer, worker_trace_paths)
        # The caller also paid for the pool start-up above.
        return replace(result, wall_seconds=time.perf_counter() - start)
    except (WorkerCrashed, DeadlineExceeded) as exc:
        if flight is not None:
            flight.record(
                "crash",
                error=str(exc),
                error_type=type(exc).__name__,
                workers=pool.workers,
                pids=pool.worker_pids(),
                segment=pool.segment_name,
            )
            flight.dump_to_dir(
                options.flight_dir, "mp",
                reason=type(exc).__name__,
                context={"engine": "mp", "algorithm": options.algorithm_name},
            )
        raise
    finally:
        # Stop worker recorders even on the failure path (tolerant: dead
        # workers are skipped) and drop the run-scoped telemetry session so
        # an injected, reused pool never records into a stale tracer.
        pool.stop_worker_tracing()
        pool.telemetry = NULL_TELEMETRY
        if trace_tmp is not None:
            trace_tmp.cleanup()
        # Detach the state from the segment before the pool unlinks it —
        # a caller holding the state (tests, invariant checks) must never
        # see views of freed memory.
        if state.visited_words is pool.visited_words:
            state.visited_words = np.array(state.visited_words)
        if state.root_x is pool.root_x:
            state.root_x = np.array(state.root_x)
        if state.leaf is pool.leaf:
            state.leaf = np.array(state.leaf)
        if own_pool:
            pool.close()


class _MpSteps(NumpySteps):
    """numpy's steps with heavy levels scattered over the worker pool, plus
    flight-recorder events."""

    def __init__(
        self,
        graph: BipartiteCSR,
        matching: Matching,
        options: GraftOptions,
        state: ForestState,
        pool: ProcPool,
        threshold: int,
        flight: FlightRecorder | None,
        counters,
    ) -> None:
        # Re-home the worker-scanned arrays onto the shared segment:
        # every later mark_visited / leaf / root_x update the master
        # makes is visible to the workers with no copies at all.
        pool.visited_words[:] = state.visited_words
        pool.root_x[:] = state.root_x
        pool.leaf[:] = state.leaf
        state.visited_words = pool.visited_words
        state.root_x = pool.root_x
        state.leaf = pool.leaf
        super().__init__(graph, matching, options, state, pool.workspace)
        self.pool = pool
        self.threshold = threshold
        self.flight = flight
        self.counters = counters

    def _record_level(self, direction: str, frontier: np.ndarray) -> None:
        if self.flight is not None:
            self.flight.record(
                "level",
                phase=self.counters.phases,
                level=self.counters.bfs_levels,
                direction=direction,
                frontier=int(frontier.size),
                unvisited_y=int(self.state.num_unvisited_y),
            )

    def topdown(self, frontier: np.ndarray):
        self._record_level("topdown", frontier)
        return super().topdown(frontier)

    def bottomup(self, frontier: np.ndarray):
        self._record_level("bottomup", frontier)
        return super().bottomup(frontier)

    def augment(self) -> np.ndarray:
        lengths = super().augment()
        if self.flight is not None:
            self.flight.record(
                "augment",
                phase=self.counters.phases,
                paths=int(lengths.size),
                matched=int(self.matching.cardinality),
            )
        return lengths

    def topdown_level(self, frontier: np.ndarray, region: str) -> kernels.LevelStats:
        if frontier.size < self.threshold:
            return super().topdown_level(frontier, region)
        state, ws = self.state, self.workspace
        frontier = frontier[kernels._active_tree_mask(state, frontier)]
        if frontier.size == 0:
            return kernels._empty_stats()
        winners, sources, edges, attempts = self.pool.topdown_superstep(frontier)
        if ws.want_costs:
            item_costs = (self.graph.deg_x[frontier] + 1).astype(np.float64)
        else:
            item_costs = kernels._NO_COSTS
        return kernels.apply_claims(
            state, self.matching, winners, sources, sources,
            item_costs, edges, attempts, ws,
        )

    def bottomup_level(self, rows: np.ndarray, region: str) -> kernels.LevelStats:
        if rows.size < self.threshold:
            return super().bottomup_level(rows, region)
        rows = np.asarray(rows, dtype=INDEX_DTYPE)
        # Same global starting chunk as the single-process kernel, so
        # per-row scan costs don't depend on the partitioning.
        if region == "grafting":
            y_ptr = self.graph.y_ptr
            total_deg = int((y_ptr[rows + 1] - y_ptr[rows]).sum())
            chunk = max(4, min(512, total_deg // max(int(rows.shape[0]), 1)))
        else:
            chunk = 4
        winners, sources, edges, costs = self.pool.bottomup_superstep(
            rows, chunk, self.workspace.want_costs
        )
        item_costs = (
            costs.astype(np.float64) + 1.0 if costs is not None else kernels._NO_COSTS
        )
        return kernels.apply_claims(
            self.state, self.matching, winners, sources, winners,
            item_costs, edges, 0, self.workspace,
        )
