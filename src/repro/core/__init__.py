"""The paper's contribution: the MS-BFS-Graft algorithm (Algorithms 3-7).

Public entry point: :func:`ms_bfs_graft` (and the :func:`repro.matching.ms_bfs`
wrapper for the no-grafting baseline). Three engines implement identical
algorithm semantics:

* ``engine="python"`` — pure-Python serial reference, faithful to the
  paper's serial execution order (trees stop growing the moment their
  augmenting path is found);
* ``engine="numpy"`` — vectorized level-synchronous kernels with *parallel*
  semantics (all frontier vertices of a level act on the level-start state,
  claims resolved first-writer-wins — what the OpenMP implementation's
  atomics produce); this engine also emits the work traces the simulated
  machine consumes;
* ``engine="interleaved"`` — executes every parallel region on the
  interleaved thread simulator with simulated atomics, exercising the race
  semantics (Section III-B's benign ``leaf`` race included).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.driver": ("ms_bfs_graft",),
    "repro.core.options": ("GraftOptions",),
    "repro.core.forest": ("ForestState",),
})

__all__ = ["ms_bfs_graft", "GraftOptions", "ForestState"]
