"""Reorder metamorphic suite: reorder -> match -> unpermute == direct.

The reordering strategy, on every algorithm of the differential registry,
must leave the answer untouched: run the matcher on the permuted layout,
map the matching back through the inverse permutation, and the result
must certify as a maximum matching *of the original graph* with the
cardinality of both the direct run and scipy's compiled matcher.

The full 200-instance catalogue (5 algorithms x ``hubsplit``) runs in
tier-1 through the cold path (the algorithm plans and applies). A spread
subset also runs through the warm path (plan and layout supplied, as a
layout-cache hit supplies them) under three relabellings: ``hubsplit``
and the test-built ``degree`` and ``bfs`` families of
``tests/graph/permutation_families.py``.
"""

from __future__ import annotations

import pytest

from repro.bench.runner import run_algorithm
from repro.graph.reorder import REORDER_STRATEGIES, apply_plan
from repro.matching.verify import verify_maximum

from tests.graph.permutation_families import PERMUTATION_FAMILIES, family_plan
from tests.matching.test_differential import CASES, scipy_cardinality

ROUNDTRIP_ALGORITHMS = (
    "ms-bfs-graft",
    "ms-bfs",
    "pothen-fan",
    "hopcroft-karp",
    "push-relabel",
)


@pytest.mark.parametrize("strategy", REORDER_STRATEGIES)
@pytest.mark.parametrize("algorithm", ROUNDTRIP_ALGORITHMS)
@pytest.mark.parametrize(("name", "builder"), CASES, ids=[c[0] for c in CASES])
def test_reorder_roundtrip(name, builder, algorithm, strategy):
    graph = builder()
    direct = run_algorithm(algorithm, graph, init="none")
    reordered = run_algorithm(algorithm, graph, init="none", reorder=strategy)
    expected = scipy_cardinality(graph)
    assert reordered.cardinality == direct.cardinality == expected, (
        f"{name}/{algorithm}/{strategy}: reordered {reordered.cardinality}, "
        f"direct {direct.cardinality}, scipy {expected}"
    )
    # The un-permuted matching must be a maximum matching of the ORIGINAL
    # graph — this certifies the inverse mapping, not just the count.
    verify_maximum(graph, reordered.matching)


# Every ~10th case crosses all families (er square/wide/tall, rmat, skewed,
# and several handcrafted corners).
QUICK_CASES = CASES[::10]


@pytest.mark.parametrize("family", PERMUTATION_FAMILIES)
@pytest.mark.parametrize("algorithm", ROUNDTRIP_ALGORITHMS)
@pytest.mark.parametrize(
    ("name", "builder"), QUICK_CASES, ids=[c[0] for c in QUICK_CASES]
)
def test_reorder_roundtrip_quick(name, builder, algorithm, family):
    graph = builder()
    plan = family_plan(graph, family)
    direct = run_algorithm(algorithm, graph, init="none")
    reordered = run_algorithm(
        algorithm, graph, init="none",
        reorder_plan=plan, reorder_layout=apply_plan(graph, plan),
    )
    assert reordered.cardinality == direct.cardinality, (
        f"{name}/{algorithm}/{family}: "
        f"{reordered.cardinality} != {direct.cardinality}"
    )
    verify_maximum(graph, reordered.matching)


@pytest.mark.parametrize(
    ("name", "builder"), QUICK_CASES[:5], ids=[c[0] for c in QUICK_CASES[:5]]
)
def test_reorder_auto_roundtrip(name, builder):
    # "auto" resolves through the dispatcher (usually to "none" at these
    # sizes) and must be exact either way.
    graph = builder()
    direct = run_algorithm("ms-bfs-graft", graph, init="none")
    auto = run_algorithm("ms-bfs-graft", graph, init="none", reorder="auto")
    assert auto.cardinality == direct.cardinality
    verify_maximum(graph, auto.matching)


def test_reorder_with_warm_start_initial():
    # The suite initialiser path: the initial matching is permuted in and
    # the result mapped back out.
    from repro.graph.generators import rmat_bipartite

    graph = rmat_bipartite(scale=7, edge_factor=4, seed=42)
    direct = run_algorithm("ms-bfs-graft", graph, seed=1)
    for strategy in REORDER_STRATEGIES:
        reordered = run_algorithm("ms-bfs-graft", graph, seed=1, reorder=strategy)
        assert reordered.cardinality == direct.cardinality
        verify_maximum(graph, reordered.matching)
