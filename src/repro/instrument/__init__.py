"""Instrumentation: counters, runtime breakdowns, frontier logs, rates.

Everything the paper's evaluation section measures lives here:

* :class:`Counters` — traversed edges, phases, augmenting-path lengths
  (Fig. 1a-c);
* :class:`FrontierLog` — frontier size per BFS level per phase (Fig. 8);
* :func:`mteps` — millions of traversed edges per second (Fig. 4);
* :func:`parallel_sensitivity` — psi = 100 * sigma / mu (Section V-B).
"""

from repro.instrument.counters import Counters
from repro.instrument.frontier import FrontierLog
from repro.instrument.phases import PhaseProfile, PhaseRecord, phase_profile
from repro.instrument.rates import mteps, parallel_sensitivity

__all__ = [
    "Counters",
    "FrontierLog",
    "mteps",
    "parallel_sensitivity",
    "PhaseProfile",
    "PhaseRecord",
    "phase_profile",
]
