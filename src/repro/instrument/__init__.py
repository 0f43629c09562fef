"""Instrumentation: counters, runtime breakdowns, frontier logs, rates.

Everything the paper's evaluation section measures lives here:

* :class:`Counters` — traversed edges, phases, augmenting-path lengths
  (Fig. 1a-c);
* :class:`FrontierLog` — frontier size per BFS level per phase (Fig. 8);
* :func:`mteps` — millions of traversed edges per second (Fig. 4);
* :func:`parallel_sensitivity` — psi = 100 * sigma / mu (Section V-B).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.instrument.counters": ("Counters",),
    "repro.instrument.frontier": ("FrontierLog",),
    "repro.instrument.phases": ("PhaseProfile", "PhaseRecord", "phase_profile"),
    "repro.instrument.rates": ("mteps", "parallel_sensitivity"),
})

__all__ = [
    "Counters",
    "FrontierLog",
    "mteps",
    "parallel_sensitivity",
    "PhaseProfile",
    "PhaseRecord",
    "phase_profile",
]
