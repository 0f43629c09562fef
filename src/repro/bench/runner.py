"""Algorithm registry + run helpers for the experiment drivers."""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.core.driver import check_no_reorder, ms_bfs_graft
from repro.core.options import Deadline
from repro.errors import BenchmarkError
from repro.graph.csr import BipartiteCSR
from repro.matching.base import MatchResult, Matching
from repro.matching.karp_sipser import karp_sipser
from repro.matching.karp_sipser_parallel import suite_warm_start

if TYPE_CHECKING:
    from repro.parallel.cost_model import SimulatedTime
    from repro.parallel.machine import MachineSpec

AlgorithmFn = Callable[[BipartiteCSR, Optional[Matching]], MatchResult]


def _baseline(name: str) -> AlgorithmFn:
    """The baseline ``repro.matching.<name>.<name>``, imported when called."""

    def run(graph: BipartiteCSR, initial: Optional[Matching], **kwargs) -> MatchResult:
        module = importlib.import_module(f"repro.matching.{name}")
        return getattr(module, name)(graph, initial, **kwargs)

    return run


ALGORITHMS: Dict[str, AlgorithmFn] = {
    "ms-bfs-graft": lambda g, m, **kw: ms_bfs_graft(g, m, **kw),
    "ms-bfs-graft-td": lambda g, m, **kw: ms_bfs_graft(g, m, direction_optimizing=False, **kw),
    "ms-bfs-do": lambda g, m, **kw: ms_bfs_graft(g, m, grafting=False, **kw),
    "ms-bfs": _baseline("ms_bfs"),
    "pothen-fan": _baseline("pothen_fan"),
    "push-relabel": _baseline("push_relabel"),
    "hopcroft-karp": _baseline("hopcroft_karp"),
    "ss-bfs": _baseline("ss_bfs"),
    "ss-dfs": _baseline("ss_dfs"),
}
"""Every algorithm the evaluation section compares, by paper name."""

PARALLEL_ALGORITHMS = ("ms-bfs-graft", "pothen-fan", "push-relabel")
"""The three algorithms of the parallel comparisons (Figs. 3-5)."""

ENGINE_AWARE = ("ms-bfs-graft", "ms-bfs-graft-td", "ms-bfs-do", "ms-bfs")
"""Algorithms that run on the MS-BFS-Graft driver and accept an ``engine``."""

TRACED = ENGINE_AWARE + ("pothen-fan", "push-relabel")
"""Algorithms that can build a work trace for the machine simulator."""


def suite_initializer(graph: BipartiteCSR, seed: int = 0) -> Matching:
    """The experiment suite's default initial matching.

    The paper initialises with the multithreaded Karp-Sipser of Azad et
    al. [4]; we reproduce its round-based parallel semantics (see
    :mod:`repro.matching.karp_sipser_parallel`). The serial Karp-Sipser is
    so precise on our synthetic instances that it often finds the maximum
    outright, which would collapse the multi-phase dynamics the paper
    measures; the parallel rounds leave the realistic 1-10% deficit.
    """
    return suite_warm_start(graph, seed=seed)


def run_algorithm(
    name: str,
    graph: BipartiteCSR,
    initial: Matching | None = None,
    *,
    init: str = "karp-sipser-parallel",
    seed: int = 0,
    engine: str | None = None,
    deadline: Deadline | None = None,
    phase_hook=None,
    telemetry=None,
    emit_trace: bool = False,
    workers: int | None = None,
    reorder: str = "none",
    reorder_plan=None,
    reorder_layout=None,
) -> MatchResult:
    """Run one registered algorithm, Karp-Sipser-initialised by default
    (as every experiment in the paper is).

    ``init`` selects the initialiser when ``initial`` is not given:
    ``"karp-sipser-parallel"`` (the suite default), ``"karp-sipser"``
    (serial), or ``"none"`` (empty matching). ``engine`` overrides the
    MS-BFS-Graft backend dispatcher, ``deadline`` is the cooperative soft
    timeout, ``phase_hook`` a per-phase callback, and ``telemetry`` a
    :class:`repro.telemetry.Telemetry` session. All of these apply only to
    the driver-backed algorithms in :data:`ENGINE_AWARE` — the batch
    service threads its deadlines, fault hooks, and telemetry through here.

    ``emit_trace`` asks the algorithms in :data:`TRACED` for the work
    trace :func:`simulated_seconds` reads; the others never build one, so
    their ``trace`` stays ``None``.

    ``workers``, ``reorder``, ``reorder_plan`` and ``reorder_layout`` are
    kept for older callers only. ``workers`` is ignored (every algorithm
    runs in this one process) and is not forwarded; the reorder keywords
    go through :func:`~repro.core.driver.check_no_reorder`: every
    algorithm runs on ``graph``'s own numbering.
    """
    fn = ALGORITHMS.get(name)
    if fn is None:
        raise BenchmarkError(f"unknown algorithm {name!r}; known: {sorted(ALGORITHMS)}")
    driver_kwargs = {}
    if engine is not None:
        driver_kwargs["engine"] = engine
    if deadline is not None:
        driver_kwargs["deadline"] = deadline
    if phase_hook is not None:
        driver_kwargs["phase_hook"] = phase_hook
    if telemetry is not None:
        driver_kwargs["telemetry"] = telemetry
    if driver_kwargs and name not in ENGINE_AWARE:
        raise BenchmarkError(
            f"algorithm {name!r} does not run on the MS-BFS-Graft driver; "
            f"{sorted(driver_kwargs)} apply only to {ENGINE_AWARE}"
        )
    check_no_reorder(reorder, reorder_plan, reorder_layout)
    if initial is None:
        if init == "karp-sipser-parallel":
            initial = suite_initializer(graph, seed=seed)
        elif init == "karp-sipser":
            initial = karp_sipser(graph, seed=seed).matching
        elif init != "none":
            raise BenchmarkError(f"unknown initialiser {init!r}")
    if emit_trace and name in TRACED:
        driver_kwargs["emit_trace"] = True
    return fn(graph, initial, **driver_kwargs)


def simulated_seconds(
    result: MatchResult, machine: MachineSpec, threads: int
) -> SimulatedTime:
    """Simulate a result's work trace on a machine at a thread count."""
    from repro.parallel.cost_model import CostModel

    if result.trace is None:
        raise BenchmarkError(
            f"algorithm {result.algorithm!r} emitted no work trace; "
            "parallel simulation unavailable"
        )
    return CostModel(machine).simulate(result.trace, threads)
