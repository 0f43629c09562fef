"""Relabellings through ``graph/permute.py``: validity, determinism,
structure, and matching round-trips, on the test-built families of
``tests/graph/permutation_families.py``."""

import numpy as np
import pytest

from repro.graph.builder import from_edges
from repro.graph.generators import (
    power_law_bipartite,
    random_bipartite,
    rmat_bipartite,
)
from repro.matching.base import UNMATCHED, Matching

from tests.graph.permutation_families import (
    HUB_DEGREE_FACTOR,
    PERMUTATION_FAMILIES,
    family_plan,
    hub_mask,
)


@pytest.fixture(scope="module")
def skewed():
    return power_law_bipartite(200, 200, avg_degree=4.0, exponent=2.0, seed=5)


@pytest.fixture(scope="module")
def er():
    return random_bipartite(150, 130, 600, seed=9)


def _relabel(graph, family):
    plan = family_plan(graph, family)
    return plan.apply(graph), plan


class TestPlanReorder:
    @pytest.mark.parametrize("family", PERMUTATION_FAMILIES)
    def test_perms_are_valid(self, skewed, family):
        plan = family_plan(skewed, family)
        assert plan.family == family
        assert sorted(plan.x_perm.tolist()) == list(range(skewed.n_x))
        assert sorted(plan.y_perm.tolist()) == list(range(skewed.n_y))

    @pytest.mark.parametrize("family", PERMUTATION_FAMILIES)
    def test_deterministic(self, er, family):
        a = family_plan(er, family)
        b = family_plan(er, family)
        assert np.array_equal(a.x_perm, b.x_perm)
        assert np.array_equal(a.y_perm, b.y_perm)

    def test_plan_rejects_unknown_strategy(self, er):
        with pytest.raises(ValueError, match="unknown permutation family"):
            family_plan(er, "metis")

    @pytest.mark.parametrize("family", PERMUTATION_FAMILIES)
    def test_empty_graph(self, family):
        g = from_edges(0, 0, np.empty((0, 2), dtype=np.int64))
        permuted, plan = _relabel(g, family)
        assert permuted.n_x == 0 and permuted.nnz == 0
        assert plan.x_perm.size == 0 and plan.y_perm.size == 0

    @pytest.mark.parametrize("family", PERMUTATION_FAMILIES)
    def test_edgeless_graph(self, family):
        g = from_edges(4, 6, np.empty((0, 2), dtype=np.int64))
        permuted, plan = _relabel(g, family)
        assert (permuted.n_x, permuted.n_y) == (4, 6)
        assert sorted(plan.x_perm.tolist()) == list(range(4))

    def test_hubsplit_packs_x_hubs_at_back_y_hubs_at_front(self, skewed):
        permuted, _ = _relabel(skewed, "hubsplit")
        x_hubs = hub_mask(permuted.deg_x)
        assert x_hubs.any() and not x_hubs.all()
        first_hub = int(np.flatnonzero(x_hubs)[0])
        assert x_hubs[first_hub:].all(), "X hubs must be contiguous at the back"
        y_hubs = hub_mask(permuted.deg_y)
        assert y_hubs.any() and not y_hubs.all()
        last_hub = int(np.flatnonzero(y_hubs)[-1])
        assert y_hubs[: last_hub + 1].all(), "Y hubs must be contiguous at the front"

    def test_hub_mask_threshold(self):
        deg = np.array([1, 1, 1, 1, 20], dtype=np.int64)
        mask = hub_mask(deg)
        assert mask.tolist() == [False, False, False, False, True]
        assert 20 >= HUB_DEGREE_FACTOR * deg.mean()
        assert hub_mask(np.empty(0, dtype=np.int64)).size == 0

    @pytest.mark.parametrize("family", PERMUTATION_FAMILIES)
    def test_structure_preserved(self, er, family):
        permuted, plan = _relabel(er, family)
        assert permuted.nnz == er.nnz
        for x, y in er.edges():
            assert permuted.has_edge(int(plan.x_perm[x]), int(plan.y_perm[y]))


class TestMatchingRoundTrip:
    def test_families_are_distinct_nontrivial_relabellings(self, er):
        identity = np.arange(er.n_x)
        x_perms = [family_plan(er, f).x_perm for f in PERMUTATION_FAMILIES]
        for i, perm in enumerate(x_perms):
            assert not np.array_equal(perm, identity)
            for other in x_perms[i + 1:]:
                assert not np.array_equal(perm, other)

    @pytest.mark.parametrize("family", PERMUTATION_FAMILIES)
    def test_permute_then_unpermute_is_identity(self, er, family):
        from repro.matching.karp_sipser import karp_sipser

        plan = family_plan(er, family)
        matching = karp_sipser(er, seed=2).matching
        back = plan.unpermute_matching(plan.permute_matching(matching))
        assert np.array_equal(back.mate_x, matching.mate_x)
        assert np.array_equal(back.mate_y, matching.mate_y)

    def test_permuted_matching_satisfies_convention(self, er):
        # mate_new[x_perm[x]] == y_perm[mate_old[x]] — the permute() contract.
        from repro.matching.karp_sipser import karp_sipser

        plan = family_plan(er, "hubsplit")
        matching = karp_sipser(er, seed=3).matching
        permuted = plan.permute_matching(matching)
        for x in range(er.n_x):
            y = matching.mate_x[x]
            if y != UNMATCHED:
                assert permuted.mate_x[plan.x_perm[x]] == plan.y_perm[y]

    def test_unpermuted_matching_lives_on_original_graph(self, skewed):
        from repro.core.driver import ms_bfs_graft

        permuted, plan = _relabel(skewed, "hubsplit")
        result = ms_bfs_graft(permuted, emit_trace=False)
        back = plan.unpermute_matching(result.matching)
        assert back.cardinality == result.cardinality
        for x in range(skewed.n_x):
            y = back.mate_x[x]
            if y != UNMATCHED:
                assert skewed.has_edge(x, int(y))

    def test_empty_matching_round_trip(self):
        g = rmat_bipartite(scale=5, edge_factor=3, seed=1)
        plan = family_plan(g, "hubsplit")
        empty = Matching.empty(g)
        assert plan.permute_matching(empty).cardinality == 0
        assert plan.unpermute_matching(empty).cardinality == 0
