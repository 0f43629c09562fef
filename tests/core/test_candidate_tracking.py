"""Incremental candidate / seed tracking: unit and regression coverage.

The hot-path overhaul replaced two per-level O(n) scans with
phase-persistent incrementally-shrunk lists:

* ``ForestState.unvisited_candidates()`` — the bottom-up kernel's row set,
  compacted lazily from a superset instead of rescanned from ``visited``;
* ``ForestState.refresh_seeds()`` — the unmatched-X seeds behind
  ``rebuild_from_unmatched``, filtered instead of rescanned.

The regression tests here run the full driver with the accessors spied on
and assert the *work bound* that makes the lists worthwhile: every scan
after the first costs at most the previous scan's surviving candidates
plus whatever grafting recycled since — never ``n_y``. A reintroduced
full rescan breaks the bound on the first phase where trees retain
vertices.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.driver import ms_bfs_graft
from repro.core.forest import ForestState
from repro.graph.generators import surplus_core_bipartite
from repro.matching.base import UNMATCHED, Matching
from repro.matching.verify import verify_maximum


class TestCandidateList:
    def test_starts_with_all_y(self):
        s = ForestState(4, 9, np.ones(9, dtype=np.int64))
        np.testing.assert_array_equal(s.unvisited_candidates(), np.arange(9))
        assert s.num_candidates == 9

    def test_mark_shrinks_lazily_then_compacts(self):
        s = ForestState(4, 10, np.ones(10, dtype=np.int64))
        s.mark_visited(np.array([2, 5, 7]))
        # Lazy: the list still physically holds 10 entries...
        assert s.candidates_y.shape[0] == 10
        assert s.num_candidates == 7
        # ...until a scan compacts it, recording the pre-compaction cost.
        got = s.unvisited_candidates()
        assert s.last_scan_cost == 10
        np.testing.assert_array_equal(got, [0, 1, 3, 4, 6, 8, 9])
        # The next scan is O(remaining), not O(n_y).
        s.unvisited_candidates()
        assert s.last_scan_cost == 7

    def test_clear_restores_without_duplicates(self):
        s = ForestState(4, 8, np.ones(8, dtype=np.int64))
        s.mark_visited(np.array([1, 2, 3]))
        s.clear_visited(np.array([2]))
        got = np.sort(s.unvisited_candidates())
        np.testing.assert_array_equal(got, [0, 2, 4, 5, 6, 7])
        assert s.num_candidates == 6
        # Recycle the rest; the list must stay duplicate-free.
        s.clear_visited(np.array([1, 3]))
        got = np.sort(s.unvisited_candidates())
        np.testing.assert_array_equal(got, np.arange(8))
        assert got.shape[0] == len(set(got.tolist()))

    def test_isolated_y_are_never_candidates(self):
        deg = np.array([2, 0, 1, 0, 0, 3])
        s = ForestState(3, 6, deg)
        np.testing.assert_array_equal(np.sort(s.unvisited_candidates()), [0, 2, 5])
        # Isolated vertices still count as unvisited for termination.
        assert s.num_unvisited_y == 6
        assert s.unvisited_deg == 6
        s.mark_visited(np.array([5]))
        assert s.unvisited_deg == 3
        assert s.num_candidates == 2
        s.clear_visited(np.array([5]))
        assert s.unvisited_deg == 6
        np.testing.assert_array_equal(np.sort(s.unvisited_candidates()), [0, 2, 5])

    def test_seed_list_shrinks_in_place(self):
        m = Matching.empty(5, 5)
        s = ForestState(5, 5, np.ones(5, dtype=np.int64))
        np.testing.assert_array_equal(s.refresh_seeds(m), np.arange(5))
        m.mate_x[1] = 0
        m.mate_x[3] = 2
        np.testing.assert_array_equal(s.refresh_seeds(m), [0, 2, 4])
        m.mate_x[0] = 4
        np.testing.assert_array_equal(s.refresh_seeds(m), [2, 4])


@pytest.mark.parametrize("engine", ["numpy", "interleaved"])
def test_bottomup_scan_cost_bounded_by_remaining_not_ny(engine, monkeypatch):
    """Regression: per-level bottom-up work is O(surviving + recycled).

    ``scan_cost[i] <= survivors[i-1] + recycled_between`` holds exactly for
    the incremental list (compaction only removes, recycling only appends);
    a full ``flatnonzero(visited == 0)`` rescan would cost ``n_y`` at every
    level and violate the bound as soon as trees retain vertices.
    """
    graph = surplus_core_bipartite(900, 540, core_degree=4.0,
                                   surplus_degree=3.0, exponent=2.0, seed=21)
    records = []  # (scan_cost, survivors_after_compaction)
    recycled = [0]  # Y vertices recycled since the previous scan

    orig_scan = ForestState.unvisited_candidates
    orig_clear = ForestState.clear_visited

    def spy_scan(self):
        out = orig_scan(self)
        records.append((self.last_scan_cost, int(out.shape[0]), recycled[0]))
        recycled[0] = 0
        return out

    def spy_clear(self, rows):
        recycled[0] += int(np.asarray(rows).shape[0])
        return orig_clear(self, rows)

    monkeypatch.setattr(ForestState, "unvisited_candidates", spy_scan)
    monkeypatch.setattr(ForestState, "clear_visited", spy_clear)

    result = ms_bfs_graft(graph, engine=engine, emit_trace=False, seed=3)
    verify_maximum(graph, result.matching)
    assert result.cardinality == 900  # the whole core matches by construction

    assert len(records) >= 2, "expected multiple bottom-up levels on this input"
    n_y = graph.n_y
    for i in range(1, len(records)):
        cost, _, recycled_since = records[i]
        survivors_prev = records[i - 1][1]
        assert cost <= survivors_prev + recycled_since, (
            f"level {i}: scanned {cost} candidates, but only "
            f"{survivors_prev} survived the previous level and "
            f"{recycled_since} were recycled since"
        )
    # The aggregate saving the lists exist for: total scan work well below
    # what per-level full rescans would have cost.
    total = sum(cost for cost, _, _ in records)
    assert total < 0.8 * len(records) * n_y


def test_seed_refresh_never_rescans_matched_x(monkeypatch):
    """The unmatched-X seed list only shrinks across phases of one run."""
    graph = surplus_core_bipartite(700, 420, seed=22)
    sizes = []
    orig = ForestState.refresh_seeds

    def spy(self, matching):
        out = orig(self, matching)
        sizes.append(int(out.shape[0]))
        return out

    monkeypatch.setattr(ForestState, "refresh_seeds", spy)
    result = ms_bfs_graft(graph, engine="numpy", emit_trace=False)
    verify_maximum(graph, result.matching)
    assert sizes, "driver never refreshed seeds"
    assert all(a >= b for a, b in zip(sizes, sizes[1:])), (
        f"seed list grew between phases: {sizes}"
    )
    # Terminal phase: every remaining seed is genuinely unmatched.
    unmatched = int((result.matching.mate_x == UNMATCHED).sum())
    assert sizes[-1] >= unmatched
