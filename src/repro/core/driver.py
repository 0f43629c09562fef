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
    REORDER_MIN_WORK,
    Deadline,
    DispatchDecision,
    GraftOptions,
)
from repro.errors import ReproError
from repro.graph.csr import BipartiteCSR
from repro.graph.reorder import (
    REORDER_CHOICES,
    ReorderPlan,
    run_reordered,
)
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


def _choose_reorder(
    graph: BipartiteCSR,
    reorder: str,
    work: int,
    reorder_min_work: int,
    flight=None,
) -> tuple[str, str]:
    """The locality term of the joint dispatch: resolve ``reorder``.

    ``"auto"`` consults the graph-family statistics that
    :mod:`repro.graph.properties` derives (degree skew): a graph whose work
    estimate clears :data:`~repro.core.options.REORDER_MIN_WORK` and whose
    degree distribution is not perfectly regular is relabelled with the
    ``hubsplit`` strategy — the measured winner on every benchmark family
    (hub rows pack contiguously; the elimination-ordered tail collapses the
    repair-phase cascade, see ``docs/performance.md``). When the statistics
    cannot be computed the decision falls back to ``"none"``
    deterministically instead of raising, leaving a note on ``flight``
    (a :class:`repro.telemetry.flight.FlightRecorder`) when one is attached.
    """
    if reorder != "auto":
        return reorder, f"reorder {reorder!r} explicitly requested"
    if work < reorder_min_work:
        return "none", (
            f"work estimate {work} < {reorder_min_work}: below the reorder "
            f"floor, relabelling cannot pay for the layout lookup"
        )
    try:
        deg_x, deg_y = graph.deg_x, graph.deg_y
        regular = bool(
            (deg_x.size == 0 or int(deg_x.max()) == int(deg_x.min()))
            and (deg_y.size == 0 or int(deg_y.max()) == int(deg_y.min()))
        )
        skew = (
            float(deg_x.max()) / float(deg_x.mean())
            if deg_x.size and float(deg_x.mean()) > 0
            else 0.0
        )
    except Exception as exc:  # stats-free CSR: degrade, never raise
        if flight is not None:
            flight.record(
                "reorder_fallback",
                error=f"{type(exc).__name__}: {exc}",
                chosen="none",
            )
        return "none", (
            f"graph statistics unavailable ({type(exc).__name__}); "
            f"deterministic fallback to no reordering"
        )
    if regular:
        return "none", (
            "degree distribution is perfectly regular: relabelling cannot "
            "change claim collisions, ordering left untouched"
        )
    return "hubsplit", (
        f"work estimate {work} >= {reorder_min_work} with degree skew "
        f"{skew:.2f}: hub rows pack contiguously and the elimination-ordered "
        f"tail minimises first-phase claim collisions"
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
    reorder_min_work: int = REORDER_MIN_WORK,
    flight=None,
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

    ``reorder`` makes the decision joint over ordering *and* backend:
    ``"auto"`` resolves through the locality term (:func:`_choose_reorder`
    — work floor, degree-skew statistics, deterministic fallback when the
    statistics are unavailable), a concrete strategy or ``"none"`` passes
    through. The outcome lands in the decision's ``reorder`` /
    ``reorder_reason`` fields.
    """
    work = int(graph.nnz + graph.n_x + graph.n_y)
    if reorder not in REORDER_CHOICES:
        raise ReproError(
            f"unknown reorder {reorder!r}; expected one of {REORDER_CHOICES}"
        )
    chosen_reorder, reorder_reason = _choose_reorder(
        graph, reorder, work, reorder_min_work, flight
    )
    if emit_trace:
        return DispatchDecision(
            engine="numpy",
            reason="work trace requested; only the vectorized backend emits traces",
            work=work,
            threshold=threshold,
            reorder=chosen_reorder,
            reorder_reason=reorder_reason,
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
            reorder=chosen_reorder,
            reorder_reason=reorder_reason,
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
                reorder=chosen_reorder,
                reorder_reason=reorder_reason,
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
            reorder=chosen_reorder,
            reorder_reason=reorder_reason,
        )
    return DispatchDecision(
        engine="numpy",
        reason=(
            f"work estimate {work} >= {threshold}: bulk kernels amortise "
            f"their per-call overhead"
        ),
        work=work,
        threshold=threshold,
        reorder=chosen_reorder,
        reorder_reason=reorder_reason,
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
    reorder_plan: ReorderPlan | None = None,
    reorder_layout: BipartiteCSR | None = None,
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
    reorder:
        Locality-aware relabelling before the run
        (:mod:`repro.graph.reorder`): ``"none"`` (default), the
        ``"hubsplit"`` strategy, or ``"auto"``
        — resolved jointly with the backend by :func:`choose_engine`'s
        locality term. The engine runs on the permuted layout; the result
        matching is mapped back to the original vertex ids before being
        returned, so verification and all downstream consumers see the
        caller's numbering. Counters, traces, and frontier logs describe
        the permuted run.
    reorder_plan:
        A precomputed :class:`~repro.graph.reorder.ReorderPlan` (typically
        from the layout cache). When given, ``reorder`` is ignored and no
        planning happens here.
    reorder_layout:
        The already-permuted graph matching ``reorder_plan`` (a cached
        layout). When given alongside ``reorder_plan``, the permutation is
        not re-applied — ``graph`` is then only used for its identity as
        the original numbering.

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
    if reorder not in REORDER_CHOICES:
        raise ReproError(
            f"unknown reorder {reorder!r}; expected one of {REORDER_CHOICES}"
        )
    strategy = reorder_plan.strategy if reorder_plan is not None else reorder
    if engine == "auto" or strategy == "auto":
        decision = choose_engine(
            graph,
            emit_trace=emit_trace,
            workers=workers if workers is not None else 1,
            reorder=strategy if reorder_plan is None else "none",
        )
        if engine == "auto":
            engine = decision.engine
        if strategy == "auto":
            strategy = decision.reorder

    def run(run_graph: BipartiteCSR, run_initial: Optional[Matching]) -> MatchResult:
        if engine == "numpy":
            return run_numpy(run_graph, run_initial, options)
        if engine == "python":
            return run_python(run_graph, run_initial, options)
        if engine == "interleaved":
            return run_interleaved(
                run_graph, run_initial, options, threads=threads, seed=seed
            )
        if engine == "mp":
            mp_kwargs = {}
            if mp_min_level_items is not None:
                mp_kwargs["min_level_items"] = int(mp_min_level_items)
            return run_mp(
                run_graph, run_initial, options,
                workers=max(workers if workers is not None else DEFAULT_WORKERS, 1),
                **mp_kwargs,
            )
        raise ReproError(f"unknown engine {engine!r}; expected one of {_ENGINES}")

    return run_reordered(
        graph, initial, run, strategy, reorder_plan, reorder_layout, telemetry
    )
