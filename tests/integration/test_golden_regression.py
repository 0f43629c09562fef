"""Golden-value regression tests.

These pin the *exact* counter values of fully deterministic runs on fixed
seeds. Unlike the property tests (which only check invariants), a change
here signals that some algorithm's execution order or work accounting
changed — which silently shifts every benchmark in the repo. If a change
is intentional (e.g. a kernel optimisation that legitimately alters scan
order), re-derive the constants and say so in the commit.
"""

import hashlib

import numpy as np
import pytest

import repro
import repro.matching as matching_mod
from repro.graph.generators import grid_bipartite, rmat_bipartite, surplus_core_bipartite
from repro.bench.runner import suite_initializer
from repro.matching.karp_sipser import karp_sipser
from repro.matching.karp_sipser_parallel import karp_sipser_parallel


@pytest.fixture(scope="module")
def surplus_case():
    graph = surplus_core_bipartite(300, 180, core_degree=4.0, seed=42)
    init = karp_sipser_parallel(graph, seed=7, max_degree_one_rounds=2).matching
    return graph, init


class TestGraftGolden:
    def test_surplus_python_engine(self, surplus_case):
        graph, init = surplus_case
        assert init.cardinality == 299
        result = repro.ms_bfs_graft(graph, init, engine="python")
        c = result.counters
        assert (result.cardinality, c.edges_traversed, c.phases, c.grafts,
                c.augmentations) == (300, 473, 2, 2, 1)

    def test_surplus_numpy_engine(self, surplus_case):
        graph, init = surplus_case
        result = repro.ms_bfs_graft(graph, init, engine="numpy")
        c = result.counters
        assert (c.edges_traversed, c.phases, c.bfs_levels) == (645, 2, 3)

    def test_surplus_frontier_trajectory_python(self, surplus_case):
        """Per-phase frontier sizes, serial reference engine.

        The python engine stops expanding a level as soon as augmenting
        paths exist (early break), so its phase-1 trajectory is shorter
        than numpy's below.
        """
        graph, init = surplus_case
        result = repro.ms_bfs_graft(
            graph, init, engine="python"
        )
        assert result.counters.phases == 2
        assert result.frontier_log.phases == [[181, 290], []]

    def test_surplus_frontier_trajectory_numpy(self, surplus_case):
        """Per-phase frontier sizes, vectorized engine.

        Bulk level expansion runs every level to exhaustion before
        augmenting (parallel semantics), so phase 1 records a third
        level the serial engine never visits.
        """
        graph, init = surplus_case
        result = repro.ms_bfs_graft(
            graph, init, engine="numpy"
        )
        assert result.counters.phases == 2
        assert result.frontier_log.phases == [[181, 275, 22], []]

    def test_rmat_serial_ks(self):
        graph = rmat_bipartite(scale=9, edge_factor=6, seed=42)
        init = karp_sipser(graph, seed=7).matching
        assert init.cardinality == 253
        result = repro.ms_bfs_graft(graph, init, engine="python")
        c = result.counters
        assert (result.cardinality, c.edges_traversed, c.phases) == (253, 1989, 1)

    def test_grid_weak_init(self):
        graph = grid_bipartite(18, 18)
        init = karp_sipser_parallel(graph, seed=7, max_degree_one_rounds=1).matching
        assert init.cardinality == 299
        result = repro.ms_bfs_graft(graph, init, engine="python")
        c = result.counters
        assert (result.cardinality, c.edges_traversed, c.phases,
                c.augmentations) == (324, 3051, 3, 25)


class TestBaselineGolden:
    def test_pothen_fan(self, surplus_case):
        graph, init = surplus_case
        result = matching_mod.pothen_fan(graph, init)
        c = result.counters
        assert (c.edges_traversed, c.phases, c.augmentations) == (5158, 2, 1)

    def test_push_relabel(self, surplus_case):
        graph, init = surplus_case
        result = matching_mod.push_relabel(graph, init)
        c = result.counters
        assert (c.edges_traversed, c.phases) == (2114, 3)

    def test_hopcroft_karp(self, surplus_case):
        graph, init = surplus_case
        result = matching_mod.hopcroft_karp(graph, init)
        c = result.counters
        assert (c.edges_traversed, c.phases) == (5085, 2)
        assert c.avg_augmenting_path_length == pytest.approx(3.0)


class TestWarmStartGolden:
    def test_suite_initializer_matching_digest(self):
        """The cache serves ``ks_<seed>.npy`` warm starts across versions
        while ``cache.keys.BUILDER_VERSION`` is unchanged, so the suite
        initialiser's matching must stay bit-identical; bump the version
        if these digests have to change."""
        init = suite_initializer(rmat_bipartite(12, edge_factor=16, seed=103))
        digests = [
            hashlib.sha256(np.ascontiguousarray(m, dtype=np.int64).tobytes()).hexdigest()
            for m in (init.mate_x, init.mate_y)
        ]
        assert init.cardinality == 2040
        assert digests == [
            "d00f9e287c16c987a6f0b2d3431d5184f16ea7a653dd68da5aa7916be5467912",
            "8326c5b973c9b392f3ebc45875b85725c2e826e752654b7b759d42dd5dfde561",
        ]
