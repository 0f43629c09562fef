"""Walkthrough tests of the tree-grafting mechanism (paper Fig. 2).

Fig. 2's exact tree shapes depend on a specific claim interleaving (x2
claims y2 before x1's scan reaches it), so the serial engine cannot
reproduce the figure verbatim. Two complements:

* :func:`grafting_graph` — a graph + maximal matching engineered so the
  *serial* engine deterministically walks the same story: one tree stalls
  (active), one finds an augmenting path (renewable), and the renewable
  tree's Y vertex is grafted onto the active tree;
* the original Fig. 2 graph itself, on which every engine must still find
  the perfect matching.
"""

import pytest

from tests.conftest import paper_figure2_graph

from repro.core.driver import ms_bfs_graft
from repro.graph.builder import from_edges
from repro.matching.base import Matching
from repro.matching.verify import (
    is_maximal_matching,
    is_maximum_matching,
    verify_maximum,
)


def grafting_graph():
    """5x4 instance where phase 1 leaves T(x0) active and T(x1) renewable.

    Edges: x0~y0; x1~y2; x2~y0,y1; x3~y1,y2; x4~y2,y3.
    Initial matching: x2-y0, x3-y1, x4-y2 (maximal; x0, x1 free).

    Phase 1 (serial order): T(x0) grows x0-y0-x2-y1-x3 and stalls (x3's
    other neighbour y2 is claimed by T(x1)); T(x1) grows x1-y2-x4 and finds
    the augmenting path (x1, y2, x4, y3). After augmentation y2 is
    renewable and adjacent to the active x3, so GRAFT re-attaches it.
    """
    graph = from_edges(5, 4, [(0, 0), (1, 2), (2, 0), (2, 1), (3, 1), (3, 2), (4, 2), (4, 3)])
    init = Matching.from_pairs(5, 4, [(2, 0), (3, 1), (4, 2)])
    return graph, init


class TestGraftingWalkthrough:
    def test_initial_is_maximal_not_maximum(self):
        graph, init = grafting_graph()
        assert is_maximal_matching(graph, init)
        assert not is_maximum_matching(graph, init)

    def test_one_augmentation_and_grafting(self):
        graph, init = grafting_graph()
        result = ms_bfs_graft(graph, init, engine="python", direction_optimizing=False)
        assert result.cardinality == 4  # x0 stays unmatched: |Y| saturated paths
        verify_maximum(graph, result.matching)
        assert result.counters.augmentations == 1
        assert result.counters.grafts >= 1
        assert result.counters.tree_rebuilds == 0

    def test_numpy_engine_grafts_too(self):
        graph, init = grafting_graph()
        result = ms_bfs_graft(graph, init, engine="numpy", direction_optimizing=False)
        assert result.cardinality == 4
        assert result.counters.grafts >= 1

    def test_grafted_vertex_joins_active_tree(self):
        # Drive the engine phase by phase through the kernels to observe
        # the graft re-attaching y2 under the active tree rooted at x0.
        import numpy as np

        from repro.core import kernels
        from repro.core.forest import ForestState
        from repro.matching.base import init_matching

        graph, init = grafting_graph()
        matching = init_matching(graph, init)
        state = ForestState.for_graph(graph)
        frontier = kernels.rebuild_from_unmatched(state, matching)
        while frontier.size:
            frontier = kernels.topdown_level(graph, state, matching, frontier).next_frontier
        roots, lengths = kernels.augment_all(state, matching)
        assert roots.tolist() == [1] and lengths.tolist() == [3]
        gstats = kernels.graft_partition(state, recycle=False)
        assert gstats.active_x_count == 3  # x0, x2, x3
        # y2 and the path endpoint y3 both sit in the renewable tree.
        assert gstats.renewable_y.tolist() == [2, 3]
        kernels.reset_rows(state, gstats.renewable_y)
        stats = kernels.bottomup_level(graph, state, matching, gstats.renewable_y)
        assert stats.claims == 1
        assert int(state.parent[2]) == 3  # y2 grafted under active x3
        assert int(state.root_y[2]) == 0  # now in T(x0)
        assert stats.next_frontier.tolist() == [1]  # mate of y2 joins frontier

    def test_without_grafting_same_result_more_work(self):
        graph, init = grafting_graph()
        graft = ms_bfs_graft(graph, init, engine="python", direction_optimizing=False)
        nograft = ms_bfs_graft(graph, init, engine="python",
                               direction_optimizing=False, grafting=False)
        assert graft.cardinality == nograft.cardinality == 4
        assert nograft.counters.tree_rebuilds >= 1


class TestFig2Graph:
    def test_perfect_matching_found(self, fig2_graph):
        for engine in ("python", "numpy", "interleaved"):
            result = ms_bfs_graft(fig2_graph, engine=engine)
            assert result.cardinality == 6, engine
            verify_maximum(fig2_graph, result.matching)

    def test_fig2_maximal_init(self, fig2_graph):
        init = Matching.from_pairs(6, 6, [(2, 0), (3, 1), (4, 2), (5, 3)])
        assert is_maximal_matching(fig2_graph, init)
        result = ms_bfs_graft(fig2_graph, init)
        assert result.cardinality == 6
