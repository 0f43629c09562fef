"""Invariant checker: consistent states pass, corrupted states raise."""

import numpy as np
import pytest

from repro.analysis.invariants import (
    InvariantChecker,
    check_alternating_paths,
    check_mate_consistency,
    check_tree_disjointness,
)
from repro.core.forest import ForestState
from repro.errors import InvariantViolation
from repro.graph.generators import planted_matching, random_bipartite
from repro.matching.base import UNMATCHED, Matching
from repro.matching.greedy import greedy_matching


@pytest.fixture()
def graph():
    return planted_matching(10, extra_edges=15, seed=3)


@pytest.fixture()
def matched(graph):
    return greedy_matching(graph).matching


class TestMateConsistency:
    def test_valid_matching_passes(self, graph, matched):
        check_mate_consistency(graph, matched)

    def test_empty_matching_passes(self, graph):
        check_mate_consistency(graph, Matching.empty(graph))

    def test_asymmetry_raises(self, graph, matched):
        x = int(np.flatnonzero(matched.mate_x != UNMATCHED)[0])
        matched.mate_y[matched.mate_x[x]] = UNMATCHED
        with pytest.raises(InvariantViolation, match="asymmetry"):
            check_mate_consistency(graph, matched)

    def test_out_of_range_raises(self, graph, matched):
        x = int(np.flatnonzero(matched.mate_x != UNMATCHED)[0])
        matched.mate_x[x] = graph.n_y + 5
        with pytest.raises(InvariantViolation, match="range"):
            check_mate_consistency(graph, matched)

    def test_non_edge_pair_raises(self):
        graph = planted_matching(6, extra_edges=0, seed=0)
        matching = Matching.empty(graph)
        # Pair x=0 with a y it has no edge to (planted matching is diagonal).
        y = 1 if not graph.has_edge(0, 1) else 2
        matching.mate_x[0] = y
        matching.mate_y[y] = 0
        with pytest.raises(InvariantViolation, match="not an edge"):
            check_mate_consistency(graph, matching)


class TestTreeDisjointness:
    def test_fresh_state_passes(self, graph, matched):
        state = ForestState.for_graph(graph)
        check_tree_disjointness(graph, state, matched)

    def test_visited_without_parent_raises(self, graph, matched):
        state = ForestState.for_graph(graph)
        state.visited[2] = 1
        with pytest.raises(InvariantViolation, match="no parent"):
            check_tree_disjointness(graph, state, matched)

    def test_root_mismatch_raises(self, graph, matched):
        state = ForestState.for_graph(graph)
        y = 3
        x = int(graph.y_adj[graph.y_ptr[y]])  # a real neighbour of y
        state.visited[y] = 1
        state.parent[y] = x
        state.root_y[y] = x
        state.root_x[x] = x + 1 if x + 1 < graph.n_x else x - 1  # disagree
        with pytest.raises(InvariantViolation, match="tree mismatch"):
            check_tree_disjointness(graph, state, matched)

    def test_stale_root_on_unvisited_raises(self, graph, matched):
        state = ForestState.for_graph(graph)
        state.root_y[4] = 0
        with pytest.raises(InvariantViolation, match="unvisited"):
            check_tree_disjointness(graph, state, matched)


class TestAlternatingPaths:
    def _single_tree(self, graph):
        """Root 0 claims its first neighbour y0 as an (unmatched) leaf."""
        state = ForestState.for_graph(graph)
        matching = Matching.empty(graph)
        x0 = 0
        y0 = int(graph.x_adj[graph.x_ptr[x0]])
        state.root_x[x0] = x0
        state.visited[y0] = 1
        state.parent[y0] = x0
        state.root_y[y0] = x0
        state.leaf[x0] = y0
        return state, matching, x0, y0

    def test_one_edge_path_passes(self, graph):
        state, matching, _, _ = self._single_tree(graph)
        check_alternating_paths(graph, state, matching)

    def test_matched_leaf_raises(self, graph):
        state, matching, x0, y0 = self._single_tree(graph)
        other_x = next(
            int(graph.y_adj[i]) for i in range(graph.y_ptr[y0], graph.y_ptr[y0 + 1])
        )
        matching.mate_y[y0] = other_x
        matching.mate_x[other_x] = y0
        with pytest.raises(InvariantViolation, match="end unmatched"):
            check_alternating_paths(graph, state, matching)

    def test_matched_parent_edge_raises(self, graph):
        """The leaf's parent edge must not itself be a matched edge."""
        state, matching, x0, y0 = self._single_tree(graph)
        matching.mate_x[x0] = y0
        matching.mate_y[y0] = x0
        with pytest.raises(InvariantViolation, match="alternation|end unmatched"):
            check_alternating_paths(graph, state, matching)

    def test_cycle_raises(self):
        graph = random_bipartite(6, 6, 24, seed=1)
        state = ForestState.for_graph(graph)
        matching = Matching.empty(graph)
        x0 = 0
        y0 = int(graph.x_adj[graph.x_ptr[x0]])
        state.root_x[x0] = x0
        state.leaf[x0] = y0
        state.visited[y0] = 1
        state.root_y[y0] = x0
        # parent points to an interior x whose mate is y0 itself -> cycle.
        interior = next(
            int(graph.y_adj[i])
            for i in range(graph.y_ptr[y0], graph.y_ptr[y0 + 1])
            if int(graph.y_adj[i]) != x0
        )
        state.parent[y0] = interior
        state.root_x[interior] = x0
        matching.mate_x[interior] = y0
        with pytest.raises(InvariantViolation):
            check_alternating_paths(graph, state, matching)


class TestChecker:
    def test_checker_counts_runs(self, graph, matched):
        state = ForestState.for_graph(graph)
        checker = InvariantChecker(graph, state, matched)
        checker.check()
        checker.check()
        assert checker.checks_run == 2

    def test_check_all_on_live_engine_state(self):
        """A real engine run's final state satisfies every invariant."""
        from repro.analysis.racecheck import run_racecheck

        graph = random_bipartite(20, 20, 70, seed=9)
        outcome = run_racecheck(graph, None, threads=3, seed=1)
        assert outcome.report.error is None
        assert outcome.invariant_checks > 0
