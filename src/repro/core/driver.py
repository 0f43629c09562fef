"""Public entry point for the MS-BFS-Graft algorithm, with backend dispatch."""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.engine_numpy import run_numpy
from repro.core.engine_python import run_python
from repro.core.options import (
    DISPATCH_WORK_THRESHOLD,
    Deadline,
    DispatchDecision,
    GraftOptions,
)
from repro.errors import ReproError
from repro.graph.csr import BipartiteCSR
from repro.matching.base import MatchResult, Matching
from repro.util.rng import SeedLike

ENGINES = ("auto", "numpy", "python", "interleaved")
"""Engine names :func:`ms_bfs_graft` accepts; the batch service and the
CLI validate against this same tuple."""


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
    reorder: str = "none",
) -> DispatchDecision:
    """Cost-model backend dispatch: pick the python or numpy engine.

    Mirrors the shape of the paper's direction rule (Algorithm 3 line 9,
    ``|F| < numUnvisitedY / alpha``): a work estimate compared against a
    calibrated threshold. The estimate is ``nnz + n_x + n_y`` — the
    per-phase touch count of the level kernels — and the python/numpy
    crossover is the measured point where numpy's per-call overhead stops
    dominating (:data:`~repro.core.options.DISPATCH_WORK_THRESHOLD`).

    Work traces for the simulated machine only exist on the vectorized
    backend, so ``emit_trace=True`` forces numpy regardless of size, and
    ``emit_trace=False`` decides on work alone. :func:`ms_bfs_graft`
    passes its own flag, which is off by default, so its ``"auto"`` runs
    dispatch on work. A direct call that leaves ``emit_trace`` out keeps
    the answer it had when every run built a trace, numpy: the end-to-end
    benchmark (``e2ebench/offline.py``) makes that call and times the
    engine it returns under a layer-coverage gate that a python-engine op
    on its smallest graphs does not meet.

    ``workers`` and ``reorder`` are kept for older callers and do not
    change the decision: every engine runs in this one process, and
    ``reorder`` is checked by :func:`check_no_reorder` (the decision's
    ``reorder`` is always ``"none"``).
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
    emit_trace: bool = False,
    check_invariants: bool = False,
    deadline: Deadline | None = None,
    phase_hook: Optional[Callable[[int], None]] = None,
    telemetry=None,
    threads: int = 4,
    seed: SeedLike = 0,
    workers: int | None = None,
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
        ``"auto"`` (cost-model dispatch between python and numpy, see
        :func:`choose_engine`), ``"numpy"`` (vectorized, parallel
        semantics, emits work traces), ``"python"`` (serial reference), or
        ``"interleaved"`` (simulated concurrent execution; honours
        ``threads`` and ``seed``); :data:`ENGINES` lists them. Passing a
        concrete engine name is the explicit override of the dispatcher.
    emit_trace:
        Build the :class:`~repro.parallel.trace.WorkTrace` the parallel
        machine simulator reads (numpy engine only, so it steers ``"auto"``
        to numpy). Off by default: only the simulated-time experiments and
        ``run --report`` read a trace, so other runs skip its bookkeeping.
    check_invariants:
        Check the engine invariants each phase (raises
        :class:`~repro.errors.InvariantViolation`; slow, for tests).
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
    workers, reorder, reorder_plan, reorder_layout:
        Kept for older callers only. ``workers`` is ignored: every engine
        runs in this one process. The reorder keywords go through
        :func:`check_no_reorder`: the run always uses ``graph``'s own
        numbering.

    Returns
    -------
    MatchResult
        Maximum matching plus counters, step breakdown, the per-level
        frontier log, and an optional trace.
    """
    options = GraftOptions(
        alpha=alpha,
        direction_optimizing=direction_optimizing,
        grafting=grafting,
        direction_strategy=direction_strategy,
        emit_trace=emit_trace,
        check_invariants=check_invariants,
        deadline=deadline,
        phase_hook=phase_hook,
        telemetry=telemetry,
    )
    check_no_reorder(reorder, reorder_plan, reorder_layout)
    if engine == "auto":
        engine = choose_engine(graph, emit_trace=emit_trace).engine
    if engine == "numpy":
        return run_numpy(graph, initial, options)
    if engine == "python":
        return run_python(graph, initial, options)
    if engine == "interleaved":
        # Only this engine needs the thread simulator (repro.parallel).
        from repro.core.engine_interleaved import run_interleaved

        return run_interleaved(graph, initial, options, threads=threads, seed=seed)
    raise ReproError(f"unknown engine {engine!r}; expected one of {ENGINES}")
