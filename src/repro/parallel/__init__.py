"""Simulated shared-memory parallel machine.

The paper's parallel results were measured with C++/OpenMP on two NUMA
multiprocessors (Mirasol: 4 sockets x 10 Westmere-EX cores x 2 SMT threads;
Edison node: 2 sockets x 12 Ivy Bridge cores x 2 SMT threads). A CPython
reproduction cannot obtain real multithreaded speedup (GIL; this host has a
single core), so this package substitutes a **deterministic simulated
machine**:

* algorithms emit a :class:`~repro.parallel.trace.WorkTrace` — per
  level-synchronous region, the cost of each *independent work item* (e.g.
  edges scanned per frontier vertex) plus atomic-operation counts;
* :class:`~repro.parallel.machine.MachineSpec` describes the topology
  (sockets, cores, SMT, NUMA remote-access factor, per-edge cost, barrier
  cost, atomic cost);
* :class:`~repro.parallel.cost_model.CostModel` schedules the items onto
  ``p`` simulated threads (the same static chunking an OpenMP
  ``parallel for`` would use) and charges ``max`` over threads per region
  plus synchronization — i.e. a work/span model with load imbalance, NUMA
  and contention terms.

The quantities that drive speedup curves on real hardware — work per level,
load balance, number of barriers, remote-memory traffic — are computed
exactly from the algorithm's actual execution, so *who scales and why* is
preserved even though wall-clock seconds are simulated.

A second component, :mod:`repro.parallel.simulator`, actually *executes*
level-synchronous matching steps under an interleaved thread schedule with
simulated atomic compare-and-swap, to exercise the concurrency semantics the
paper relies on (atomic ``visited`` claims; the benign ``leaf`` race).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.parallel.machine": (
        "MachineSpec",
        "MIRASOL",
        "EDISON",
        "LAPTOP",
        "MANYCORE",
    ),
    "repro.parallel.trace": ("ParallelRegion", "WorkTrace"),
    "repro.parallel.cost_model": ("CostModel", "SimulatedTime"),
    "repro.parallel.scheduler": ("static_chunks", "assign_contiguous", "assign_lpt"),
    "repro.parallel.simulator": ("InterleavedSimulator", "SimThreadState"),
})

__all__ = [
    "MachineSpec",
    "MIRASOL",
    "EDISON",
    "LAPTOP",
    "MANYCORE",
    "ParallelRegion",
    "WorkTrace",
    "CostModel",
    "SimulatedTime",
    "static_chunks",
    "assign_contiguous",
    "assign_lpt",
    "InterleavedSimulator",
    "SimThreadState",
]
