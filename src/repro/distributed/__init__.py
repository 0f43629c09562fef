"""Distributed-memory MS-BFS-Graft (the paper's Section VI future work).

The paper closes with: *"The MS-BFS-Graft algorithm employs level
synchronous BFSs for which efficient distributed algorithms exist. In
future, we plan to develop a distributed memory MS-BFS-Graft algorithm."*
This package builds that algorithm on a simulated message-passing cluster:

* :mod:`repro.distributed.partition` — 1D block partitioning of both vertex
  sides; each rank owns a block of X rows (with their adjacency) and a
  block of Y rows (with the transposed adjacency), mirroring how the
  paper's shared-memory code keeps both directions;
* :mod:`repro.distributed.bsp` — bulk-synchronous execution accounting:
  per-superstep compute per rank, bytes exchanged per rank pair, plus an
  alpha-beta communication cost model (``ClusterSpec``);
* :mod:`repro.distributed.engine` — the algorithm itself, executed with
  real BSP semantics: every cross-rank information flow is an explicit
  message applied only at superstep boundaries, claims are resolved by the
  owning rank, augmenting paths are flipped by walker messages hopping
  between owners, and a bottom-up graft replicates the active-X bitmap the
  way distributed direction-optimizing BFS replicates frontier bitmaps.
  Its :class:`~repro.distributed.engine.BSPForest` is the steps object of
  the shared phase loop (:func:`repro.core.engine_loop.run_phases`), so
  the distributed runs get the same direction and graft rules, step spans
  and König cover as the shared-memory engines;
* :mod:`repro.distributed.engine2d` — the 2D (grid) routing of the same
  forest: row-scoped broadcasts, column-scoped reductions.

The engine produces exactly the same matching cardinality as the
shared-memory engines (tested across rank counts and seeds) and a
superstep log that the cost model turns into distributed scaling curves —
the extension experiment ``benchmarks/bench_ext_distributed.py``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.distributed.bsp": ("BSPCostModel", "ClusterSpec", "SuperstepLog"),
    "repro.distributed.engine": ("DistributedResult", "distributed_ms_bfs_graft"),
    "repro.distributed.engine2d": ("distributed_ms_bfs_graft_2d",),
    "repro.distributed.grid": ("Grid2D",),
    "repro.distributed.partition": ("Partition1D",),
})

__all__ = [
    "Partition1D",
    "ClusterSpec",
    "SuperstepLog",
    "BSPCostModel",
    "distributed_ms_bfs_graft",
    "distributed_ms_bfs_graft_2d",
    "Grid2D",
    "DistributedResult",
]
