"""Relabelling metamorphic suite: relabel -> match -> map back == direct.

Every algorithm of the differential registry must be indifferent to vertex
numbering: run the matcher on a relabelled copy of the graph
(:func:`repro.graph.permute.permute`), map the matching back through the
inverse permutation, and the result must certify as a maximum matching
*of the original graph* with the cardinality of both the direct run and
scipy's compiled matcher.

The full 200-instance catalogue (5 algorithms) runs under the test-built
``hubsplit`` relabelling, with no initial matching. A spread subset runs
the default Karp-Sipser-initialised pipeline under all three families of
``tests/graph/permutation_families.py``.
"""

from __future__ import annotations

import pytest

from repro.bench.runner import run_algorithm
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

CATALOGUE_FAMILIES = ("hubsplit",)


def _relabelled_run(algorithm, graph, family, **kwargs):
    """Run ``algorithm`` on ``graph`` relabelled by ``family``; returns the
    result with its matching mapped back to the original ids."""
    plan = family_plan(graph, family)
    result = run_algorithm(algorithm, plan.apply(graph), **kwargs)
    return result.cardinality, plan.unpermute_matching(result.matching)


@pytest.mark.parametrize("strategy", CATALOGUE_FAMILIES)
@pytest.mark.parametrize("algorithm", ROUNDTRIP_ALGORITHMS)
@pytest.mark.parametrize(("name", "builder"), CASES, ids=[c[0] for c in CASES])
def test_reorder_roundtrip(name, builder, algorithm, strategy):
    graph = builder()
    direct = run_algorithm(algorithm, graph, init="none")
    cardinality, back = _relabelled_run(algorithm, graph, strategy, init="none")
    expected = scipy_cardinality(graph)
    assert cardinality == direct.cardinality == expected, (
        f"{name}/{algorithm}/{strategy}: relabelled {cardinality}, "
        f"direct {direct.cardinality}, scipy {expected}"
    )
    # The mapped-back matching must be a maximum matching of the ORIGINAL
    # graph — this certifies the inverse mapping, not just the count.
    verify_maximum(graph, back)


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
    direct = run_algorithm(algorithm, graph, seed=1)
    cardinality, back = _relabelled_run(algorithm, graph, family, seed=1)
    assert cardinality == direct.cardinality, (
        f"{name}/{algorithm}/{family}: {cardinality} != {direct.cardinality}"
    )
    verify_maximum(graph, back)


@pytest.mark.parametrize(
    ("name", "builder"), QUICK_CASES[:5], ids=[c[0] for c in QUICK_CASES[:5]]
)
def test_reorder_auto_roundtrip(name, builder):
    # "auto" is only accepted for older callers: the run must stay on the
    # caller's numbering, so its matching is the direct one, pair for pair.
    graph = builder()
    direct = run_algorithm("ms-bfs-graft", graph, init="none")
    auto = run_algorithm("ms-bfs-graft", graph, init="none", reorder="auto")
    assert auto.cardinality == direct.cardinality
    assert (auto.matching.mate_x == direct.matching.mate_x).all()
    verify_maximum(graph, auto.matching)


def test_reorder_with_warm_start_initial():
    # A warm start computed on the original ids is permuted in, the engine
    # repairs it on the relabelled graph, and the answer is mapped back out.
    from repro.graph.generators import rmat_bipartite
    from repro.matching.karp_sipser import karp_sipser

    graph = rmat_bipartite(scale=7, edge_factor=4, seed=42)
    initial = karp_sipser(graph, seed=1).matching
    direct = run_algorithm("ms-bfs-graft", graph, initial)
    for family in PERMUTATION_FAMILIES:
        plan = family_plan(graph, family)
        result = run_algorithm(
            "ms-bfs-graft", plan.apply(graph), plan.permute_matching(initial)
        )
        back = plan.unpermute_matching(result.matching)
        assert result.cardinality == direct.cardinality
        verify_maximum(graph, back)
