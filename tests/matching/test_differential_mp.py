"""Differential suite for the multi-processor execution models.

The paper's algorithm runs on many processors at once; this package models
that in two ways, both single-process: the interleaved engine
(``engine="interleaved"``) runs the phases as simulated threads racing on
shared forest state, and the distributed engine
(:func:`repro.distributed.distributed_ms_bfs_graft`) runs them as ranks
exchanging messages at superstep boundaries. ``test_differential`` pins
the python and numpy engines to an outside oracle; this module reuses its
instance catalogue — the ~200 seeded graphs — and demands the same two
certificates from both models: cardinality equal to Hopcroft–Karp's, and
independent maximality certification (Berge + König) of the returned
matching.

The interleaved engine runs two simulated threads, with a schedule seed
per instance, on every instance; the distributed engine runs two ranks on
every 10th.
"""

from __future__ import annotations

import pytest

from repro.core.driver import ms_bfs_graft
from repro.distributed import distributed_ms_bfs_graft
from repro.matching.hopcroft_karp import hopcroft_karp
from repro.matching.verify import verify_maximum
from tests.matching.test_differential import CASES


@pytest.mark.parametrize("name,build", CASES, ids=[name for name, _ in CASES])
def test_mp_agrees_and_certifies(name, build):
    graph = build()
    expected = hopcroft_karp(graph).cardinality
    seed = CASES.index((name, build))
    result = ms_bfs_graft(graph, engine="interleaved", threads=2, seed=seed,
                          emit_trace=False)
    assert result.cardinality == expected, (
        f"{name}: interleaved returned {result.cardinality}, hopcroft-karp {expected}"
    )
    verify_maximum(graph, result.matching)


@pytest.mark.parametrize("index", range(0, len(CASES), 10))
def test_mp_fully_distributed_subset(index):
    # Every 10th instance on two ranks: every level goes through the
    # rank-local scans and the owner-side superstep commits.
    name, build = CASES[index]
    graph = build()
    expected = hopcroft_karp(graph).cardinality
    result = distributed_ms_bfs_graft(graph, ranks=2)
    assert result.cardinality == expected, f"{name} (distributed, 2 ranks)"
    verify_maximum(graph, result.matching)

