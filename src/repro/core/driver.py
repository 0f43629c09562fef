"""Public entry point for the MS-BFS-Graft algorithm, with backend dispatch."""

from __future__ import annotations

import os
from typing import Callable, Optional

from repro.core.engine_interleaved import run_interleaved
from repro.core.engine_numpy import run_numpy
from repro.core.engine_python import run_python
from repro.core.options import (
    DISPATCH_WORK_THRESHOLD,
    MP_DISPATCH_MIN_WORK,
    Deadline,
    DispatchDecision,
    GraftOptions,
)
from repro.errors import ReproError
from repro.graph.csr import BipartiteCSR
from repro.matching.base import MatchResult, Matching
from repro.parallel.procpool import DEFAULT_WORKERS, run_mp
from repro.util.rng import SeedLike

_ENGINES = ("auto", "numpy", "python", "interleaved", "mp")


def available_cores() -> int:
    """Cores this process may actually run on (affinity-aware).

    ``sched_getaffinity`` respects cgroup/taskset restrictions — the number
    that matters for a process pool — with ``cpu_count`` as the portable
    fallback.
    """
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def check_no_reorder(reorder: str = "none", plan=None, layout=None) -> None:
    """Accept the removed reordering keywords only as their no-op values.

    Every engine runs on the numbering it is given. ``reorder`` may still
    be ``"none"`` or ``"auto"`` (both mean the original numbering) and
    ``reorder_plan``/``reorder_layout`` may still be ``None``, so older
    callers keep working; anything else raises :class:`ReproError`.
    """
    if reorder not in ("none", "auto") or plan is not None or layout is not None:
        raise ReproError(
            "vertex reordering was removed: runs always use the caller's "
            f"numbering, so reorder must be 'none' or 'auto' (got {reorder!r}) "
            "and reorder_plan/reorder_layout must be None"
        )


def choose_engine(
    graph: BipartiteCSR,
    *,
    emit_trace: bool = True,
    threshold: int = DISPATCH_WORK_THRESHOLD,
    workers: int = 1,
    mp_threshold: int = MP_DISPATCH_MIN_WORK,
    cores: int | None = None,
    reorder: str = "none",
) -> DispatchDecision:
    """Cost-model backend dispatch: pick the python, numpy, or mp engine.

    Mirrors the shape of the paper's direction rule (Algorithm 3 line 9,
    ``|F| < numUnvisitedY / alpha``): work estimates compared against
    calibrated thresholds. The estimate is ``nnz + n_x + n_y`` — the
    per-phase touch count of the level kernels — and the python/numpy
    crossover is the measured point where numpy's per-call overhead stops
    dominating (:data:`~repro.core.options.DISPATCH_WORK_THRESHOLD`).

    The process-parallel backend enters the decision only when the caller
    asked for ``workers >= 2``; it is picked when the pool can actually
    run in parallel (``min(workers, cores) >= 2`` — a pool pinned to one
    core merely adds barrier latency) **and** the work estimate clears
    :data:`~repro.core.options.MP_DISPATCH_MIN_WORK`, the floor below
    which process barriers cost more than the scans they parallelise.
    ``cores`` is injectable for tests; it defaults to the live affinity
    count (:func:`available_cores`).

    Work traces for the simulated machine only exist on the vectorized
    backend, so ``emit_trace=True`` forces numpy regardless of size.

    ``reorder`` is checked by :func:`check_no_reorder` and otherwise
    ignored; the decision's ``reorder`` is always ``"none"``.
    """
    check_no_reorder(reorder)
    work = int(graph.nnz + graph.n_x + graph.n_y)
    if emit_trace:
        return DispatchDecision(
            engine="numpy",
            reason="work trace requested; only the vectorized backend emits traces",
            work=work,
            threshold=threshold,
        )
    if work < threshold:
        return DispatchDecision(
            engine="python",
            reason=(
                f"work estimate {work} < {threshold}: below the vectorization "
                f"overhead crossover, interpreted loops win"
            ),
            work=work,
            threshold=threshold,
        )
    if workers >= 2:
        cores = available_cores() if cores is None else int(cores)
        effective = min(int(workers), cores)
        if effective >= 2 and work >= mp_threshold:
            return DispatchDecision(
                engine="mp",
                reason=(
                    f"work estimate {work} >= {mp_threshold} with "
                    f"{effective} usable workers (requested {workers}, "
                    f"{cores} cores): per-level scans amortise the process "
                    f"barriers"
                ),
                work=work,
                threshold=threshold,
            )
        if effective < 2:
            decline = (
                f"mp declined: min(workers={workers}, cores={cores}) = "
                f"{effective} < 2, a pool pinned to one core only adds "
                f"barrier latency"
            )
        else:
            decline = (
                f"mp declined: work estimate {work} < {mp_threshold}, "
                f"process barriers would dominate the per-level scans"
            )
        return DispatchDecision(
            engine="numpy",
            reason=(
                f"work estimate {work} >= {threshold}: bulk kernels amortise "
                f"their per-call overhead ({decline})"
            ),
            work=work,
            threshold=threshold,
        )
    return DispatchDecision(
        engine="numpy",
        reason=(
            f"work estimate {work} >= {threshold}: bulk kernels amortise "
            f"their per-call overhead"
        ),
        work=work,
        threshold=threshold,
    )


def ms_bfs_graft(
    graph: BipartiteCSR,
    initial: Matching | None = None,
    *,
    alpha: float = 5.0,
    direction_optimizing: bool = True,
    grafting: bool = True,
    direction_strategy: str = "vertex",
    engine: str = "auto",
    record_frontiers: bool = False,
    emit_trace: bool = True,
    check_invariants: bool = False,
    deadline: Deadline | None = None,
    phase_hook: Optional[Callable[[int], None]] = None,
    telemetry=None,
    threads: int = 4,
    seed: SeedLike = 0,
    workers: int | None = None,
    flight_dir: str | None = None,
    mp_min_level_items: int | None = None,
    reorder: str = "none",
    reorder_plan=None,
    reorder_layout=None,
) -> MatchResult:
    """Maximum cardinality bipartite matching by MS-BFS with tree grafting.

    Implements Algorithm 3 of Azad, Buluç & Pothen (IPDPS 2015): phases of
    multi-source alternating BFS with direction optimization, parallel
    augmentation, and tree grafting.

    Parameters
    ----------
    graph:
        The bipartite graph; searches start from unmatched X vertices.
    initial:
        Starting matching (typically Karp-Sipser); the empty matching when
        omitted. Never mutated.
    alpha:
        Threshold for both the top-down/bottom-up switch and the grafting
        profitability test (paper default 5).
    direction_optimizing, grafting:
        Feature flags; disabling both yields plain MS-BFS (Algorithm 2).
    direction_strategy:
        ``"vertex"`` (the paper's |F| vs unvisited count rule) or ``"edge"``
        (Beamer's degree-weighted rule); see
        :class:`~repro.core.options.GraftOptions`.
    engine:
        ``"auto"`` (cost-model dispatch between python, numpy, and — when
        ``workers >= 2`` — mp, see :func:`choose_engine`), ``"numpy"``
        (vectorized, parallel semantics, emits work traces), ``"python"``
        (serial reference), ``"interleaved"`` (simulated concurrent
        execution; honours ``threads`` and ``seed``), or ``"mp"``
        (process-parallel shared-memory pool; honours ``workers``).
        Passing a concrete engine name is the explicit override of the
        dispatcher.
    record_frontiers:
        Record per-level frontier sizes (Fig. 8).
    emit_trace:
        Emit a :class:`~repro.parallel.trace.WorkTrace` (numpy engine only;
        steers ``"auto"`` towards numpy).
    check_invariants:
        Assert forest invariants each phase (slow; for tests).
    deadline:
        Cooperative soft timeout (:class:`~repro.core.options.Deadline`);
        every engine checks it at phase boundaries and raises
        :class:`~repro.errors.DeadlineExceeded` on expiry. The batch
        service (:mod:`repro.service`) uses this to keep stuck jobs from
        hanging a whole suite.
    phase_hook:
        Called with the phase number at each phase start (progress
        reporting / fault injection).
    telemetry:
        Telemetry session (:class:`repro.telemetry.Telemetry`). When set,
        the run emits a span tree (``run`` → ``phase`` → step spans) and
        fills the session's metrics registry (frontier sizes, visited
        claims, grafts vs rebuilds, ...); see ``docs/observability.md``.
    threads, seed:
        Interleaved engine: simulated thread count and schedule seed.
    workers:
        Process count for the mp engine; also the worker term of the
        ``"auto"`` cost model (mp is only considered when ``workers >= 2``
        and at least two cores are actually available). ``None`` means "not
        requested": auto-dispatch never picks mp, while an explicit
        ``engine="mp"`` falls back to the pool default
        (:data:`~repro.parallel.procpool.DEFAULT_WORKERS`). The result is
        bit-identical for every worker count.
    flight_dir:
        Directory for crash flight-recorder dumps (mp engine): the master
        keeps a bounded ring of per-level events and writes it there as
        post-mortem JSONL on worker crashes or deadline expiry. ``None``
        (the default) records nothing.
    mp_min_level_items:
        mp engine only: override the per-level scatter floor
        (:data:`~repro.parallel.procpool.MIN_LEVEL_ITEMS`). Levels with
        fewer work items run on the master; ``0`` forces every level
        through the pool (tests, tracing demos). ``None`` keeps the
        default. The result is identical either way.
    reorder, reorder_plan, reorder_layout:
        Kept for older callers only (:func:`check_no_reorder`): the run
        always uses ``graph``'s own numbering.

    Returns
    -------
    MatchResult
        Maximum matching plus counters, step breakdown, and optional trace /
        frontier log.
    """
    options = GraftOptions(
        alpha=alpha,
        direction_optimizing=direction_optimizing,
        grafting=grafting,
        direction_strategy=direction_strategy,
        record_frontiers=record_frontiers,
        emit_trace=emit_trace,
        check_invariants=check_invariants,
        deadline=deadline,
        phase_hook=phase_hook,
        telemetry=telemetry,
        flight_dir=flight_dir,
    )
    check_no_reorder(reorder, reorder_plan, reorder_layout)
    if engine == "auto":
        engine = choose_engine(
            graph,
            emit_trace=emit_trace,
            workers=workers if workers is not None else 1,
        ).engine
    if engine == "numpy":
        return run_numpy(graph, initial, options)
    if engine == "python":
        return run_python(graph, initial, options)
    if engine == "interleaved":
        return run_interleaved(graph, initial, options, threads=threads, seed=seed)
    if engine == "mp":
        mp_kwargs = {}
        if mp_min_level_items is not None:
            mp_kwargs["min_level_items"] = int(mp_min_level_items)
        return run_mp(
            graph, initial, options,
            workers=max(workers if workers is not None else DEFAULT_WORKERS, 1),
            **mp_kwargs,
        )
    raise ReproError(f"unknown engine {engine!r}; expected one of {_ENGINES}")
