"""Prepared-graph model and the builders the cache wraps.

A *prepared graph* is everything the engines need to start matching
without touching the ingest pipeline again: the validated CSR (both
orientations) and — per initialiser seed — the Karp-Sipser warm-start
matching the experiment suite begins from.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.graph.csr import BipartiteCSR
from repro.graph.readers import LabelledGraph


@dataclass
class PreparedGraph:
    """One prepared graph, whether freshly built or cache-loaded."""

    graph: BipartiteCSR
    key: str
    from_cache: bool
    """True iff this was a cache hit (the build step was skipped)."""
    source: str = ""
    """Human-readable provenance (``suite:rmat scale=1.0`` or a file path)."""
    entry_dir: Path | None = None
    """Backing cache entry, when the graph went through a store."""
    labels: LabelledGraph | None = None
    """A SNAP file's original ids; ``None`` for every other source."""


def build_suite_graph(name: str, scale: float) -> BipartiteCSR:
    """Build one experiment-suite graph (the cache-miss path)."""
    from repro.bench.suite import get_suite_graph

    return get_suite_graph(name, scale=scale).graph


def warm_start_matching(graph: BipartiteCSR, seed: int):
    """The suite's Karp-Sipser-parallel warm start
    (:func:`repro.matching.karp_sipser_parallel.suite_warm_start`)."""
    from repro.matching.karp_sipser_parallel import suite_warm_start

    return suite_warm_start(graph, seed=seed)
