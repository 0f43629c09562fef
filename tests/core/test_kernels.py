"""Unit tests of the vectorized level kernels."""

import copy
import inspect
import sys
from dataclasses import asdict

import numpy as np
import pytest

from tests.core.test_engine_loop_parity import FLAGS, run_engine
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
from repro.parallel.shared import READ


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
        kernels.topdown_level(g, state, matching, frontier)
        assert state.leaf.tolist() == [0]

    def test_one_leaf_per_tree(self):
        # One root adjacent to 3 free Y vertices: only one becomes the leaf.
        g = from_edges(1, 3, [(0, 0), (0, 1), (0, 2)])
        state, matching, frontier = fresh(g)
        kernels.topdown_level(g, state, matching, frontier)
        assert state.leaf.tolist() == [0]  # one leaf: the deterministic first winner
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
        kernels.bottomup_level(g, state, matching, np.array([0]))
        assert state.leaf.tolist() == [0]

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
        assert sweep.claims == scan.claims
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
            run_numpy(g, initial, GraftOptions(emit_trace=trace))
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
        stats = kernels.graft_partition(state, recycle=False)
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
        kernels.graft_partition(state, recycle=False)
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


def reference_active(root: np.ndarray, leaf: np.ndarray) -> np.ndarray:
    """Active-tree membership with an explicit guard for unrooted vertices."""
    return (root != -1) & (leaf[np.maximum(root, 0)] == -1)


def random_forest(seed: int, n_x: int = 40, n_y: int = 35) -> ForestState:
    """A forest with unrooted vertices, renewable trees and a live tree
    rooted at ``n_x - 1``, the entry that an unguarded ``leaf[-1]`` reads."""
    rng = np.random.default_rng(seed)
    state = ForestState(n_x, n_y, np.ones(n_y, dtype=np.int64))
    roots = np.append(rng.choice(n_x - 1, size=6, replace=False), n_x - 1)
    state.root_x[:] = rng.choice(np.append(roots, -1), size=n_x)
    state.root_y[:] = rng.choice(np.append(roots, -1), size=n_y)
    state.root_x[roots] = roots
    state.leaf[roots[:3]] = rng.integers(0, n_y, size=3)
    assert (state.root_x == -1).any() and (state.root_y == -1).any()
    assert state.leaf[n_x - 1] == -1 and (state.root_x == n_x - 1).any()
    return state


class TestSentinelLeaf:
    """``leaf_buf``'s extra slot makes active-tree membership one gather."""

    @pytest.mark.parametrize("seed", range(5))
    def test_single_gather_matches_guarded_reference(self, seed):
        state = random_forest(seed)
        want_x = reference_active(state.root_x, state.leaf)
        want_y = reference_active(state.root_y, state.leaf)
        everyone = np.arange(state.n_x)
        np.testing.assert_array_equal(kernels._active_tree_mask(state, everyone), want_x)
        np.testing.assert_array_equal(state.active_x_mask(), want_x)
        np.testing.assert_array_equal(state.active_y_mask(), want_y)
        np.testing.assert_array_equal(
            state.renewable_x_mask(), (state.root_x != -1) & ~want_x
        )
        np.testing.assert_array_equal(
            state.renewable_y_mask(), (state.root_y != -1) & ~want_y
        )

    def test_leaf_is_a_view_without_the_sentinel(self):
        state = ForestState(5, 3, np.ones(3, dtype=np.int64))
        assert state.leaf.shape == (5,)
        assert state.leaf_buf.shape == (6,) and state.leaf_buf[5] != -1
        state.leaf[2] = 1
        assert state.leaf_buf[2] == 1

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy])
    def test_leaf_writes_reach_the_active_test_after_copy(self, clone):
        state = random_forest(3)
        twin = clone(state)
        live = state.n_x - 1
        members = np.flatnonzero(twin.root_x == live)
        assert kernels._active_tree_mask(twin, members).all()
        twin.leaf[live] = 0
        assert not kernels._active_tree_mask(twin, members).any()
        assert not twin.active_y_mask()[twin.root_y == live].any()
        # A deep copy owns its buffer; a shallow one shares it.
        shared = clone is copy.copy
        assert kernels._active_tree_mask(state, members).all() != shared


def scan_rows_reference(g, state, rows):
    """Algorithm 6 one row at a time: each row reads its neighbours up to and
    including its first active one. Returns ``(claims, edges, costs)``."""
    active = reference_active(state.root_x, state.leaf)
    claims, costs = {}, []
    for y in rows.tolist():
        nbrs = g.y_adj[g.y_ptr[y]:g.y_ptr[y + 1]].tolist()
        cost = len(nbrs)
        for k, x in enumerate(nbrs):
            if active[x]:
                claims[y], cost = x, k + 1
                break
        costs.append(cost)
    return claims, int(sum(costs)), np.asarray(costs, dtype=np.float64) + 1.0


class TestBottomUpMatchesRowScan:
    """The probe-then-chunked scan against a per-row Python scan, on states
    with active, renewable and tree-less X, in both regions and both
    active-test paths (the level-start full mask and the per-vertex test)."""

    @staticmethod
    def _mixed_state(seed):
        g = random_bipartite(120, 110, 520, seed=seed)
        matching = greedy_matching(g, shuffle=True, seed=seed).matching
        state = ForestState.for_graph(g)
        frontier = kernels.rebuild_from_unmatched(state, matching)
        kernels.topdown_level(g, state, matching, frontier)
        # Make some trees renewable, as if they had found augmenting paths.
        state.leaf[frontier[::3]] = 0
        return g, matching, state

    @pytest.mark.parametrize("seed", [1, 4, 9])
    @pytest.mark.parametrize("region", ["bottomup", "grafting"])
    @pytest.mark.parametrize("full_mask", [True, False])
    def test_same_claims_edges_and_costs(self, seed, region, full_mask):
        g, matching, state = self._mixed_state(seed)
        rows = state.unvisited_candidates().copy()
        if not full_mask:
            # Few enough rows that the kernel tests each neighbour on its own.
            keep = np.cumsum(g.deg_y[rows]) < state.n_x // 2
            rows = rows[keep]
        assert (int(g.deg_y[rows].sum()) >= state.n_x // 2) == full_mask
        claims, edges, costs = scan_rows_reference(g, state, rows)
        assert claims and len(claims) < rows.size
        ws = kernels.KernelWorkspace.for_graph(g)
        assert ws.want_costs
        stats = kernels.bottomup_level(g, state, matching, rows, ws, region=region)
        assert stats.edges == edges
        np.testing.assert_array_equal(stats.item_costs, costs)
        assert stats.claims == len(claims)
        won = np.array(sorted(claims), dtype=np.int64)
        assert state.visited[won].all()
        np.testing.assert_array_equal(state.parent[won], [claims[y] for y in won.tolist()])


class RecordingObserver:
    def __init__(self):
        self.records = []

    def begin_region(self, kind):
        self.records.append(("region", kind))

    def record_bulk(self, array, indices, kind, atomic, threads):
        self.records.append((array, np.array(indices), kind, atomic, np.array(threads)))


def test_first_probe_reports_one_root_x_read_per_row():
    # Two roots; every Y row's first neighbour is root 0, so each row hits
    # on its probe and no chunked round runs.
    g = from_edges(2, 3, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 2)])
    state, matching, _ = fresh(g)
    observer = RecordingObserver()
    state.observer = observer
    rows = np.array([0, 1, 2])
    stats = kernels.bottomup_level(g, state, matching, rows)
    assert stats.claims == 3 and stats.edges == 3
    reads = [r for r in observer.records if r[0] == "root_x" and r[2] == READ]
    assert len(reads) == 1
    _, indices, _, atomic, threads = reads[0]
    assert indices.tolist() == [0, 0, 0] and threads.tolist() == [0, 1, 2]
    assert not atomic


class TestSelect:
    def test_all_true_mask_returns_the_input(self):
        values = np.arange(5, dtype=np.int64)
        assert kernels._select(values, np.ones(5, dtype=bool)) is values
        empty = values[:0]
        assert kernels._select(empty, np.ones(0, dtype=bool)) is empty

    def test_partial_mask_returns_a_compressed_copy(self):
        values = np.arange(5, dtype=np.int64)
        mask = np.array([True, False, True, True, False])
        out = kernels._select(values, mask)
        assert out is not values
        np.testing.assert_array_equal(out, values.compress(mask))

    def test_paths_parity_graph_runs_every_all_true_branch(self, monkeypatch):
        # Every call site of ``_select`` in the kernels must meet an
        # all-true mask on the ``paths`` parity graph; its golden row
        # (test_engine_loop_parity) pins that those branches change nothing.
        select = kernels._select
        calls = set()
        all_true = set()

        def recording(values, mask):
            out = select(values, mask)
            np.testing.assert_array_equal(out, values.compress(mask))
            caller = sys._getframe(1)
            site = (caller.f_code.co_name, caller.f_lineno)
            calls.add(site)
            if out is values:
                all_true.add(site)
            return out

        monkeypatch.setattr(kernels, "_select", recording)
        graph, initial = PARITY_GRAPHS["paths"]()
        for flags in FLAGS:
            run_engine("numpy", graph, initial, *flags)
        call_sites = inspect.getsource(kernels).count("_select(") - 1  # the def
        assert len(calls) == call_sites
        assert all_true == calls
