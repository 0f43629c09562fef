"""The engine's runtime invariant checks (see :mod:`repro.core.invariants`,
where the engines call them)."""

from repro.core.invariants import (
    InvariantChecker,
    check_all_invariants,
    check_alternating_paths,
    check_forest_counters,
    check_mate_consistency,
    check_tree_disjointness,
)

__all__ = [
    "InvariantChecker",
    "check_all_invariants",
    "check_alternating_paths",
    "check_forest_counters",
    "check_mate_consistency",
    "check_tree_disjointness",
]
