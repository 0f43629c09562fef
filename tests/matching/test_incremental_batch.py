"""Batched repair: differential certification against from-scratch MS-BFS-Graft.

The online daemon's whole correctness story rests on
:meth:`IncrementalMatcher.apply_batch` producing a *maximum* matching after
arbitrary insert/delete batches. Every test here certifies cardinality
against a from-scratch :func:`~repro.core.driver.ms_bfs_graft` run on the
same graph and validates the matching itself with
:func:`~repro.matching.verify.verify_maximum` (feasibility + Berge).
"""

import numpy as np
import pytest

from repro.core.driver import ms_bfs_graft
from repro.core.options import Deadline
from repro.errors import DeadlineExceeded, MatchingError
from repro.graph.generators import random_bipartite
from repro.matching.incremental import BatchRepairStats, IncrementalMatcher
from repro.matching.verify import verify_maximum


def certify(matcher: IncrementalMatcher) -> int:
    """Assert the matcher's matching is maximum; returns the cardinality."""
    graph = matcher.graph()
    verify_maximum(graph, matcher.matching())
    scratch = ms_bfs_graft(graph, emit_trace=False).cardinality
    assert matcher.cardinality == scratch
    return scratch


def random_batch(rng, n_x, n_y, size, p_delete=0.3):
    ops = []
    for _ in range(size):
        op = "delete" if rng.random() < p_delete else "insert"
        ops.append((op, int(rng.integers(0, n_x)), int(rng.integers(0, n_y))))
    return ops


class TestBatchBasics:
    def test_empty_batch_on_empty_matcher(self):
        m = IncrementalMatcher(4, 4)
        stats = m.apply_batch([])
        assert stats == BatchRepairStats(
            inserted=0, deleted=0, skipped=0, freed=0, augmented=0,
            bfs_rounds=1, cardinality=0,
        )

    def test_empty_batch_is_a_noop_repair(self):
        m = IncrementalMatcher(3, 3)
        m.apply_batch([("insert", 0, 0), ("insert", 1, 1)])
        before = m.matching().pairs()
        stats = m.apply_batch(())
        assert stats.augmented == 0 and stats.cardinality == 2
        assert m.matching().pairs() == before

    def test_insert_batch_matches_perfectly(self):
        m = IncrementalMatcher(5, 5)
        stats = m.apply_batch([("insert", i, i) for i in range(5)])
        assert stats.inserted == 5 and stats.cardinality == 5
        certify(m)

    def test_duplicate_edges_in_one_batch_skipped(self):
        m = IncrementalMatcher(3, 3)
        stats = m.apply_batch(
            [("insert", 0, 0), ("insert", 0, 0), ("insert", 0, 0)]
        )
        assert stats.inserted == 1 and stats.skipped == 2
        assert m.cardinality == 1

    def test_insert_then_delete_same_edge_nets_out(self):
        # Updates apply in order: the edge exists mid-batch, then vanishes.
        m = IncrementalMatcher(2, 2)
        stats = m.apply_batch([("insert", 0, 0), ("delete", 0, 0)])
        assert stats.inserted == 1 and stats.deleted == 1
        assert not m.has_edge(0, 0) and m.cardinality == 0

    def test_delete_then_insert_same_edge_restores(self):
        m = IncrementalMatcher(2, 2)
        m.apply_batch([("insert", 0, 0)])
        stats = m.apply_batch([("delete", 0, 0), ("insert", 0, 0)])
        assert stats.freed == 1
        assert m.has_edge(0, 0) and m.cardinality == 1
        certify(m)

    def test_op_aliases(self):
        m = IncrementalMatcher(3, 3)
        m.apply_batch([("+", 0, 0), ("add", 1, 1), ("INSERT", 2, 2)])
        assert m.cardinality == 3
        m.apply_batch([("-", 0, 0), ("remove", 1, 1), ("del", 2, 2)])
        assert m.cardinality == 0

    def test_bad_entries_rejected(self):
        m = IncrementalMatcher(2, 2)
        with pytest.raises(MatchingError, match="unknown batch op"):
            m.apply_batch([("frobnicate", 0, 0)])
        with pytest.raises(MatchingError, match="op, x, y"):
            m.apply_batch([(0, 0)])
        with pytest.raises(MatchingError, match="out of range"):
            m.apply_batch([("insert", 5, 0)])


class TestSeedingCorrectness:
    def test_inserted_edge_mid_path_between_untouched_endpoints(self):
        # The counterexample to touched-only seeding: the batch inserts
        # (x1, y0), whose endpoints are both matched, but the augmenting
        # path it opens runs x0 -> y1 -> x1 -> y0 starting at the UNTOUCHED
        # free vertex x0. The global fixpoint sweeps must find it.
        m = IncrementalMatcher(2, 2)
        m.apply_batch([("insert", 0, 1), ("insert", 1, 1)])
        assert m.cardinality == 1  # y1 contested; x0 or x1 free
        stats = m.apply_batch([("insert", 1, 0)])
        assert stats.cardinality == 2
        certify(m)

    def test_delete_frees_y_reachable_from_untouched_free_x(self):
        # Deleting matched (x1, y0) frees y0; the repair path starts at the
        # untouched free x0 (whose only edge goes to y0).
        m = IncrementalMatcher(2, 2)
        m.apply_batch([("insert", 0, 0), ("insert", 1, 0), ("insert", 1, 1)])
        base = m.cardinality
        stats = m.apply_batch([("delete", 1, 1)])
        # x1's remaining edge is y0: maximum stays 2? No — x1 only has y0
        # left and x0 only has y0, so maximum drops to 1... unless x0
        # keeps y0. Either way the certified check is what matters.
        assert stats.cardinality <= base
        certify(m)

    def test_delete_only_batch_stays_maximum(self):
        rng = np.random.default_rng(7)
        m = IncrementalMatcher(20, 20)
        edges = {(int(rng.integers(0, 20)), int(rng.integers(0, 20)))
                 for _ in range(60)}
        m.apply_batch([("insert", x, y) for x, y in sorted(edges)])
        doomed = sorted(edges)[::3]
        m.apply_batch([("delete", x, y) for x, y in doomed])
        certify(m)


class TestDifferential:
    """The acceptance-criteria suite: >= 100 random batches certified."""

    @pytest.mark.parametrize("seed", range(20))
    def test_random_batches_match_from_scratch(self, seed):
        # 20 seeds x 6 batches = 120 certified random batches, covering
        # empty batches, duplicate edges within a batch, and mixed
        # insert/delete ratios on graphs of varying density.
        rng = np.random.default_rng(seed)
        n_x = int(rng.integers(2, 30))
        n_y = int(rng.integers(2, 30))
        m = IncrementalMatcher(n_x, n_y)
        for round_no in range(6):
            if round_no == 3:
                batch = []  # empty batch mid-sequence
            else:
                size = int(rng.integers(1, 40))
                batch = random_batch(rng, n_x, n_y, size,
                                     p_delete=float(rng.uniform(0.1, 0.6)))
                if batch and rng.random() < 0.5:
                    batch.append(batch[0])  # duplicate edge in one batch
            stats = m.apply_batch(batch)
            assert stats.cardinality == m.cardinality
            certify(m)

    @pytest.mark.parametrize("seed", range(5))
    def test_batch_equals_per_edge_sequence(self, seed):
        # One batch must land on the same cardinality as applying the same
        # updates one at a time through add_edge/remove_edge.
        rng = np.random.default_rng(100 + seed)
        n = 15
        batch = random_batch(rng, n, n, 50)
        batched = IncrementalMatcher(n, n)
        batched.apply_batch(batch)
        stepwise = IncrementalMatcher(n, n)
        for op, x, y in batch:
            if op == "insert":
                stepwise.add_edge(x, y)
            else:
                stepwise.remove_edge(x, y)
        assert batched.cardinality == stepwise.cardinality
        assert batched.edge_list() == stepwise.edge_list()
        certify(batched)

    def test_batch_on_prebuilt_graph(self):
        graph = random_bipartite(40, 40, 120, seed=3)
        m = IncrementalMatcher.from_graph(graph)
        certify(m)
        rng = np.random.default_rng(9)
        m.apply_batch(random_batch(rng, 40, 40, 200))
        certify(m)


class TestSweepEconomics:
    def test_large_batch_needs_few_sweeps(self):
        # The point of batching: a 1000-update batch repairs in a handful
        # of BFS sweeps, not one per update. The bound here is generous
        # (paths + seeded rounds + 2 certifying sweeps), the bench record
        # in benchmarks/BENCH_incremental.json tracks the actual ratio.
        rng = np.random.default_rng(11)
        n = 200
        m = IncrementalMatcher(n, n)
        m.apply_batch([("insert", int(rng.integers(0, n)),
                        int(rng.integers(0, n))) for _ in range(400)])
        batch = random_batch(rng, n, n, 1000)
        stats = m.apply_batch(batch)
        assert stats.inserted + stats.deleted + stats.skipped == 1000
        assert stats.bfs_rounds <= stats.augmented + stats.freed + 4
        assert stats.bfs_rounds < 100  # per-edge would pay ~1000 sweeps
        certify(m)


class TestDeadline:
    def test_deadline_expiry_leaves_valid_state(self):
        clock_now = [0.0]
        deadline = Deadline(0.5, clock=lambda: clock_now[0])
        m = IncrementalMatcher(10, 10)
        clock_now[0] = 1.0  # expire before the first sweep
        with pytest.raises(DeadlineExceeded):
            m.apply_batch([("insert", i, i) for i in range(10)],
                          deadline=deadline)
        # Structural updates landed; matching is valid but not maximum.
        assert m.has_edge(0, 0)
        pairs = m.matching().pairs()
        assert all(m.has_edge(x, y) for x, y in pairs)
        # A fresh repair with no deadline restores maximality.
        stats = m.repair()
        assert stats.cardinality == 10
        certify(m)


class TestDeterministicSnapshots:
    def test_edge_list_independent_of_set_history(self):
        # Two matchers reach the same edge set through different insert
        # orders (and one through a delete and re-insert); the edge list and
        # the graph snapshot, which feed the snapshot key, must not depend
        # on that history.
        a = IncrementalMatcher(1, 16)
        for y in (8, 0, 1, 9):
            a.apply_batch([("insert", 0, y)])
        b = IncrementalMatcher(1, 16)
        for y in (0, 1, 9, 8):
            b.apply_batch([("insert", 0, y)])
        b.apply_batch([("delete", 0, 8), ("insert", 0, 8)])
        assert a.edge_list() == b.edge_list() == [(0, 0), (0, 1), (0, 8), (0, 9)]
        assert a.graph() == b.graph()
        assert np.array_equal(a.graph().y_ptr, b.graph().y_ptr)
        assert np.array_equal(a.graph().y_adj, b.graph().y_adj)

    def test_graph_snapshots_bit_identical_across_histories(self):
        rng = np.random.default_rng(21)
        edges = sorted({(int(rng.integers(0, 12)), int(rng.integers(0, 12)))
                        for _ in range(40)})
        a = IncrementalMatcher(12, 12)
        a.apply_batch([("insert", x, y) for x, y in edges])
        # b reaches the same edge set through extra insert/delete churn.
        b = IncrementalMatcher(12, 12)
        churn = [("insert", x, y) for x, y in reversed(edges)]
        churn += [("delete", x, y) for x, y in edges[::2]]
        churn += [("insert", x, y) for x, y in edges[::2]]
        b.apply_batch(churn)
        ga, gb = a.graph(), b.graph()
        assert np.array_equal(ga.x_ptr, gb.x_ptr)
        assert np.array_equal(ga.x_adj, gb.x_adj)
        assert np.array_equal(ga.y_ptr, gb.y_ptr)
        assert np.array_equal(ga.y_adj, gb.y_adj)
