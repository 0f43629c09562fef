"""Allocation profile of a warm numpy-engine solve.

A level of the numpy engine allocates only what it reads: the workspace's
``arange`` is vertex-sized and grown on demand, and a selection whose mask
is all true returns its input instead of a copy. Together they hold a warm
solve's peak of live Python-heap memory under 5 x nnz int64 entries on ER
graphs shaped like the ``scratch-er`` benchmark workload (no initial
matching); with an edge-sized ``arange`` per run and a copy of every
all-true selection the peak read about 6.4 x nnz x 8 bytes.
"""

import tracemalloc

import pytest

from repro.core.driver import ms_bfs_graft
from repro.graph.generators import random_bipartite

PEAK_BOUND = 5.0
"""Peak traced bytes of one warm solve, in units of ``nnz * 8`` bytes."""


@pytest.mark.parametrize("log_n", [12, 13])
def test_warm_solve_peak_stays_under_five_edge_arrays(log_n):
    n = 1 << log_n
    graph = random_bipartite(n, n - n // 64, 6 * n, seed=7)
    expected = ms_bfs_graft(graph, None, engine="numpy")
    tracemalloc.start()
    try:
        result = ms_bfs_graft(graph, None, engine="numpy")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.cardinality == expected.cardinality
    ratio = peak / (graph.nnz * 8)
    assert ratio <= PEAK_BOUND, f"warm solve peak {ratio:.2f} x nnz * 8 B"
