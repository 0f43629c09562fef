"""Unit tests of the vectorized level kernels."""

import copy
from dataclasses import asdict

import numpy as np
import pytest

from tests.core.test_engine_loop_parity import GRAPHS as PARITY_GRAPHS

from repro.core import kernels
from repro.core.engine_numpy import run_numpy
from repro.core.forest import ForestState
from repro.core.options import GraftOptions
from repro.graph.builder import from_edges
from repro.graph.generators import complete_bipartite, random_bipartite, rmat_bipartite
from repro.matching.base import Matching
from repro.matching.greedy import greedy_matching
from repro.matching.karp_sipser import karp_sipser


def fresh(graph, matching=None):
    state = ForestState.for_graph(graph)
    matching = matching or Matching.empty(graph.n_x, graph.n_y)
    frontier = kernels.rebuild_from_unmatched(state, matching)
    return state, matching, frontier


class TestTopDown:
    def test_claims_each_target_once(self):
        g = complete_bipartite(3, 2)  # all x share both y's
        state, matching, frontier = fresh(g)
        stats = kernels.topdown_level(g, state, matching, frontier)
        assert stats.claims == 2
        assert int(state.visited.sum()) == 2
        # First frontier vertex in order wins both claims.
        assert state.parent[0] == 0 and state.parent[1] == 0

    def test_edge_count_full_scan(self):
        g = complete_bipartite(3, 2)
        state, matching, frontier = fresh(g)
        stats = kernels.topdown_level(g, state, matching, frontier)
        assert stats.edges == 6  # parallel semantics: every neighbour scanned

    def test_unmatched_target_sets_leaf(self):
        g = from_edges(1, 1, [(0, 0)])
        state, matching, frontier = fresh(g)
        stats = kernels.topdown_level(g, state, matching, frontier)
        assert stats.endpoints == 1
        assert state.leaf[0] == 0

    def test_one_leaf_per_tree(self):
        # One root adjacent to 3 free Y vertices: only one becomes the leaf.
        g = from_edges(1, 3, [(0, 0), (0, 1), (0, 2)])
        state, matching, frontier = fresh(g)
        stats = kernels.topdown_level(g, state, matching, frontier)
        assert stats.endpoints == 1
        assert state.leaf[0] == 0  # deterministic first winner
        assert int(state.visited.sum()) == 3  # others still claimed (benign race)

    def test_matched_target_enqueues_mate(self):
        g = from_edges(2, 1, [(0, 0), (1, 0)])
        matching = Matching.from_pairs(2, 1, [(1, 0)])
        state = ForestState.for_graph(g)
        frontier = kernels.rebuild_from_unmatched(state, matching)
        stats = kernels.topdown_level(g, state, matching, frontier)
        assert stats.next_frontier.tolist() == [1]
        assert state.root_x[1] == 0

    def test_skips_renewable_tree_members(self):
        g = from_edges(1, 1, [(0, 0)])
        state, matching, frontier = fresh(g)
        state.leaf[0] = 0  # tree already renewable
        stats = kernels.topdown_level(g, state, matching, frontier)
        assert stats.edges == 0 and stats.claims == 0

    def test_empty_frontier(self):
        g = complete_bipartite(2, 2)
        state, matching, _ = fresh(g)
        stats = kernels.topdown_level(g, state, matching, np.empty(0, dtype=np.int64))
        assert stats.edges == 0
        assert stats.next_frontier.size == 0

    def test_unvisited_counter_updated(self):
        g = complete_bipartite(3, 3)
        state, matching, frontier = fresh(g)
        kernels.topdown_level(g, state, matching, frontier)
        assert state.num_unvisited_y == 0


class TestBottomUp:
    def test_attaches_to_first_active_neighbor(self):
        g = from_edges(2, 1, [(0, 0), (1, 0)])
        state, matching, frontier = fresh(g)  # both x are roots
        stats = kernels.bottomup_level(g, state, matching, np.array([0]))
        assert stats.claims == 1
        assert state.parent[0] == 0  # lowest-index neighbour wins
        assert stats.edges == 1  # early break after first hit

    def test_scans_full_row_without_hit(self):
        g = from_edges(2, 2, [(0, 0), (1, 0), (1, 1)])
        matching = Matching.from_pairs(2, 2, [(0, 0), (1, 1)])
        state = ForestState.for_graph(g)
        # Perfect matching: no unmatched X -> no trees -> no active vertices.
        kernels.rebuild_from_unmatched(state, matching)
        stats = kernels.bottomup_level(g, state, matching, np.array([0]))
        assert stats.claims == 0
        assert stats.edges == 2  # full row scanned, no break

    def test_unmatched_row_creates_leaf(self):
        g = from_edges(1, 1, [(0, 0)])
        state, matching, frontier = fresh(g)
        stats = kernels.bottomup_level(g, state, matching, np.array([0]))
        assert stats.endpoints == 1
        assert state.leaf[0] == 0

    def test_degree_zero_rows(self):
        g = from_edges(1, 2, [(0, 0)])
        state, matching, _ = fresh(g)
        stats = kernels.bottomup_level(g, state, matching, np.array([1]))
        assert stats.claims == 0
        assert stats.edges == 0

    def test_empty_rows(self):
        g = complete_bipartite(2, 2)
        state, matching, _ = fresh(g)
        stats = kernels.bottomup_level(g, state, matching, np.empty(0, dtype=np.int64))
        assert stats.edges == 0


class TestBottomUpFromFrontier:
    """At a fresh phase the frontier is the ascending seed list and the whole
    active set, so the frontier-side sweep must leave exactly the forest,
    bookkeeping and next frontier of Algorithm 6's row scan."""

    FOREST = (
        "visited", "parent", "root_x", "root_y", "leaf", "candidates_y", "seeds_x",
        "num_unvisited_y", "num_candidates", "unvisited_deg", "last_scan_cost",
    )

    @staticmethod
    def _fresh_state(g, matching):
        state = ForestState.for_graph(g)
        state.attach_degrees(g.deg_y)
        return state, kernels.rebuild_from_unmatched(state, matching)

    @staticmethod
    def _rebuilt_state(g, matching):
        # One phase with the grafting=False flow: grow, augment, partition,
        # destroy the active trees and re-root every unmatched X.
        state, frontier = TestBottomUpFromFrontier._fresh_state(g, matching)
        while frontier.size:
            frontier = kernels.topdown_level(g, state, matching, frontier).next_frontier
        kernels.augment_all(state, matching)
        gstats = kernels.graft_partition(state, tracked=True)
        kernels.reset_rows(state, gstats.active_y)
        return state, kernels.rebuild_from_unmatched(state, matching)

    def _assert_same_level(self, g, matching, state, frontier):
        assert frontier.size
        scan_state, sweep_state = state, copy.deepcopy(state)
        scan = kernels.bottomup_level(
            g, scan_state, matching, scan_state.unvisited_candidates()
        )
        sweep = kernels.bottomup_from_frontier(g, sweep_state, matching, frontier)
        assert scan.claims > 0
        for name in self.FOREST:
            np.testing.assert_array_equal(
                getattr(sweep_state, name), getattr(scan_state, name), err_msg=name
            )
        for name in ("tree_x_parts", "tree_y_parts"):
            got, want = getattr(sweep_state, name), getattr(scan_state, name)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b, err_msg=name)
        np.testing.assert_array_equal(sweep.next_frontier, scan.next_frontier)
        assert (sweep.claims, sweep.endpoints) == (scan.claims, scan.endpoints)
        # Each side reads what it reads: the frontier's full rows here.
        assert sweep.edges == int(g.deg_x[frontier].sum())

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_phase_one_start(self, seed):
        g = rmat_bipartite(9, edge_factor=8, seed=seed)
        matching = karp_sipser(g).matching
        state, frontier = self._fresh_state(g, matching)
        self._assert_same_level(g, matching, state, frontier)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_after_rebuild(self, seed):
        g = rmat_bipartite(9, edge_factor=8, seed=seed)
        matching = greedy_matching(g, shuffle=True, seed=seed).matching
        state, frontier = self._rebuilt_state(g, matching)
        # Recycled rows were appended: the row scan's order is not ascending,
        # so the sweep's reordering is what keeps the two identical.
        cand = state.unvisited_candidates()
        assert np.any(np.diff(cand) < 0)
        self._assert_same_level(g, matching, state, frontier)

    @pytest.mark.parametrize("rebuilt", [False, True])
    def test_isolated_parity_graph(self, rebuilt):
        g, _ = PARITY_GRAPHS["isolated"]()
        matching = Matching.empty(g.n_x, g.n_y)
        make = self._rebuilt_state if rebuilt else self._fresh_state
        state, frontier = make(g, matching)
        self._assert_same_level(g, matching, state, frontier)

    def test_untraced_engine_reads_fewer_edges_for_the_same_run(self):
        # A traced run keeps the row scan (the simulated machine models
        # Algorithm 6); an untraced one takes the sweep on the first level.
        g = rmat_bipartite(10, edge_factor=8, seed=0)
        initial = karp_sipser(g).matching
        runs = [
            run_numpy(g, initial, GraftOptions(emit_trace=trace, record_frontiers=True))
            for trace in (True, False)
        ]
        traced, untraced = runs
        assert traced.counters.bottomup_steps > 0
        np.testing.assert_array_equal(traced.matching.mate_x, untraced.matching.mate_x)
        np.testing.assert_array_equal(traced.matching.cover_y, untraced.matching.cover_y)
        assert traced.frontier_log.phases == untraced.frontier_log.phases
        a, b = asdict(traced.counters), asdict(untraced.counters)
        assert b.pop("edges_traversed") < a.pop("edges_traversed")
        assert a == b


class TestAugmentAll:
    def test_flips_path(self):
        g = from_edges(2, 2, [(0, 0), (1, 0), (1, 1)])
        matching = Matching.from_pairs(2, 2, [(1, 0)])
        state = ForestState.for_graph(g)
        frontier = kernels.rebuild_from_unmatched(state, matching)
        frontier = kernels.topdown_level(g, state, matching, frontier).next_frontier
        while frontier.size:
            frontier = kernels.topdown_level(g, state, matching, frontier).next_frontier
        roots, lengths = kernels.augment_all(state, matching)
        assert roots.tolist() == [0]
        assert lengths.tolist() == [3]
        assert matching.cardinality == 2
        assert matching.is_consistent()

    def test_no_paths(self):
        g = complete_bipartite(2, 2)
        matching = Matching.from_pairs(2, 2, [(0, 0), (1, 1)])
        state = ForestState.for_graph(g)
        kernels.rebuild_from_unmatched(state, matching)
        roots, lengths = kernels.augment_all(state, matching)
        assert roots.size == 0 and lengths.size == 0


class TestGraftStatistics:
    def test_classification(self):
        g = from_edges(2, 2, [(0, 0), (1, 1)])
        matching = Matching.empty(2, 2)
        state = ForestState.for_graph(g)
        frontier = kernels.rebuild_from_unmatched(state, matching)
        kernels.topdown_level(g, state, matching, frontier)
        # Both trees found augmenting paths -> no active vertices remain.
        kernels.augment_all(state, matching)
        stats = kernels.graft_statistics(state)
        assert stats.active_x_count == 0
        assert sorted(stats.renewable_y.tolist()) == [0, 1]
        assert stats.active_y.size == 0

    def test_renewable_roots_cleared(self):
        g = from_edges(1, 1, [(0, 0)])
        matching = Matching.empty(1, 1)
        state = ForestState.for_graph(g)
        frontier = kernels.rebuild_from_unmatched(state, matching)
        kernels.topdown_level(g, state, matching, frontier)
        kernels.augment_all(state, matching)
        kernels.graft_statistics(state)
        assert state.root_x[0] == -1  # renewable X root pointer cleared


class TestResetAndRebuild:
    def test_reset_rows(self):
        g = complete_bipartite(2, 2)
        state, matching, frontier = fresh(g)
        kernels.topdown_level(g, state, matching, frontier)
        before = state.num_unvisited_y
        kernels.reset_rows(state, np.array([0, 1]))
        assert state.num_unvisited_y == before + 2
        assert not state.visited.any()

    def test_rebuild_sets_roots(self):
        g = complete_bipartite(3, 3)
        matching = Matching.from_pairs(3, 3, [(1, 1)])
        state = ForestState.for_graph(g)
        frontier = kernels.rebuild_from_unmatched(state, matching)
        assert sorted(frontier.tolist()) == [0, 2]
        assert state.root_x[0] == 0 and state.root_x[2] == 2
        assert state.root_x[1] == -1


class TestTrackedPartition:
    """graft_partition(tracked=True) must equal the full-scan partition.

    The tracked path derives its vertex sets from the incremental
    ``tree_*_parts`` membership lists that rebuild_from_unmatched and
    _apply_claims maintain; growing two identical forests and partitioning
    one each way checks both the returned sets and the state mutations,
    across two phases so the parts-reset after a partition is covered too.
    """

    @staticmethod
    def _grow_phase(g, state, matching):
        frontier = kernels.rebuild_from_unmatched(state, matching)
        while frontier.size:
            frontier = kernels.topdown_level(g, state, matching, frontier).next_frontier
        kernels.augment_all(state, matching)

    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_matches_full_scan_over_two_phases(self, seed):
        from repro.matching.greedy import greedy_matching

        g = random_bipartite(60, 55, 260, seed=seed)
        m1 = greedy_matching(g, shuffle=True, seed=seed + 1).matching
        m2 = m1.copy()
        s1, s2 = ForestState.for_graph(g), ForestState.for_graph(g)
        for _ in range(2):
            self._grow_phase(g, s1, m1)
            self._grow_phase(g, s2, m2)
            tracked = kernels.graft_partition(s1, tracked=True)
            full = kernels.graft_partition(s2)
            assert tracked.active_x_count == full.active_x_count
            assert sorted(tracked.active_y.tolist()) == sorted(full.active_y.tolist())
            assert sorted(tracked.renewable_y.tolist()) == sorted(full.renewable_y.tolist())
            np.testing.assert_array_equal(s1.root_x, s2.root_x)
            np.testing.assert_array_equal(s1.root_y, s2.root_y)
            np.testing.assert_array_equal(s1.visited, s2.visited)
            np.testing.assert_array_equal(s1.leaf, s2.leaf)
            np.testing.assert_array_equal(m1.mate_x, m2.mate_x)
            # Mirror the engine's destroy-and-rebuild branch: active rows
            # are reset before the next phase rebuilds from unmatched seeds.
            kernels.reset_rows(s1, tracked.active_y)
            kernels.reset_rows(s2, full.active_y)
