"""Algorithm registry + run helpers for the experiment drivers."""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.core.driver import check_no_reorder, ms_bfs_graft
from repro.core.options import Deadline
from repro.errors import BenchmarkError
from repro.graph.csr import BipartiteCSR
from repro.matching.base import MatchResult, Matching
from repro.matching.hopcroft_karp import hopcroft_karp
from repro.matching.karp_sipser import karp_sipser
from repro.matching.karp_sipser_parallel import suite_warm_start
from repro.matching.ms_bfs import ms_bfs
from repro.matching.pothen_fan import pothen_fan
from repro.matching.push_relabel import push_relabel
from repro.matching.ss_bfs import ss_bfs
from repro.matching.ss_dfs import ss_dfs
from repro.parallel.cost_model import CostModel, SimulatedTime
from repro.parallel.machine import MachineSpec

AlgorithmFn = Callable[[BipartiteCSR, Optional[Matching]], MatchResult]

ALGORITHMS: Dict[str, AlgorithmFn] = {
    "ms-bfs-graft": lambda g, m, **kw: ms_bfs_graft(g, m, **kw),
    "ms-bfs-graft-td": lambda g, m, **kw: ms_bfs_graft(g, m, direction_optimizing=False, **kw),
    "ms-bfs-do": lambda g, m, **kw: ms_bfs_graft(g, m, grafting=False, **kw),
    "ms-bfs": lambda g, m, **kw: ms_bfs(g, m, **kw),
    "pothen-fan": lambda g, m: pothen_fan(g, m),
    "push-relabel": lambda g, m: push_relabel(g, m),
    "hopcroft-karp": lambda g, m: hopcroft_karp(g, m),
    "ss-bfs": lambda g, m: ss_bfs(g, m),
    "ss-dfs": lambda g, m: ss_dfs(g, m),
}
"""Every algorithm the evaluation section compares, by paper name."""

PARALLEL_ALGORITHMS = ("ms-bfs-graft", "pothen-fan", "push-relabel")
"""The three algorithms of the parallel comparisons (Figs. 3-5)."""

ENGINE_AWARE = ("ms-bfs-graft", "ms-bfs-graft-td", "ms-bfs-do", "ms-bfs")
"""Algorithms that run on the MS-BFS-Graft driver and accept an ``engine``."""


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
    return fn(graph, initial, **driver_kwargs)


def simulated_seconds(
    result: MatchResult, machine: MachineSpec, threads: int
) -> SimulatedTime:
    """Simulate a result's work trace on a machine at a thread count."""
    if result.trace is None:
        raise BenchmarkError(
            f"algorithm {result.algorithm!r} emitted no work trace; "
            "parallel simulation unavailable"
        )
    return CostModel(machine).simulate(result.trace, threads)
