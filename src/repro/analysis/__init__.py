"""Correctness tooling for the parallel matching engine.

Three layers, each an executable form of an argument the paper makes in
prose (Section III-B):

* :mod:`repro.analysis.racecheck` — a dynamic race detector over the
  interleaved simulator's shared-access log: derives happens-before from
  barriers and atomic operations, reports data races, and classifies them
  *benign* (the whitelisted ``leaf`` last-writer-wins race) or *harmful*;
* :mod:`repro.analysis.invariants` — post-barrier/post-phase checks that
  the matching is mutually consistent, BFS trees are vertex-disjoint, and
  augmenting paths alternate;
* :mod:`repro.analysis.effects` + :mod:`repro.analysis.phasecheck` — the
  static analyzer behind ``repro-match analyze``: one rule table
  (REP001–REP009) run over per-function effect summaries of shared
  arrays (read / raw-written / atomically written, propagated through the
  call graph) and over each module's AST, checking the engines'
  phase-discipline contracts plus the repo-specific AST checks of
  :mod:`repro.analysis.lint` (shared-array mutation discipline, no global
  RNG state, no wall-clock in cost models, an engine-free certificate
  checker).
"""

from repro.analysis.effects import (
    Effects,
    FunctionInfo,
    PackageEffects,
    build_package_effects,
)
from repro.analysis.invariants import InvariantChecker, check_all_invariants
from repro.analysis.phasecheck import RULES, Finding, Rule, run_analyze
from repro.analysis.racecheck import RaceMonitor, RaceReport, run_racecheck

__all__ = [
    "InvariantChecker",
    "check_all_invariants",
    "RaceMonitor",
    "RaceReport",
    "run_racecheck",
    "Effects",
    "FunctionInfo",
    "PackageEffects",
    "build_package_effects",
    "RULES",
    "Finding",
    "Rule",
    "run_analyze",
]
