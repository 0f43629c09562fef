"""Deterministic fault injection for the batch service.

Extends the race detector's fault-injection idea (named, opt-in,
deterministic faults — see :data:`repro.core.engine_interleaved.KNOWN_FAULTS`)
to the service layer, so the deadline path is testable without real
waiting:

* ``slow-phase[:seconds]`` — every engine phase costs ``seconds`` extra on
  the service clock (default ``0.05``), injected through the engines'
  ``phase_hook``; jobs with tight deadlines then expire deterministically
  at a phase boundary.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import ServiceError

SLOW_PHASE = "slow-phase"
KNOWN_FAULTS = frozenset({SLOW_PHASE})


def parse_faults(specs: Iterable[str]) -> float:
    """Parse CLI fault specs (``name`` or ``name:value``) into the seconds
    each engine phase burns on the service clock (``0.0`` injects nothing)."""
    slow = 0.0
    for spec in specs:
        name, _, value = spec.partition(":")
        if name != SLOW_PHASE:
            raise ServiceError(
                f"unknown fault injection {name!r}; known: {sorted(KNOWN_FAULTS)}"
            )
        try:
            slow = float(value) if value else 0.05
        except ValueError as exc:
            raise ServiceError(f"bad fault spec {spec!r}: seconds must be a float") from exc
        if slow <= 0:
            raise ServiceError(f"bad fault spec {spec!r}: seconds must be positive")
    return slow
