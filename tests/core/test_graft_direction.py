"""The top-down and bottom-up grafting sweeps claim the same rows.

At graft time every unvisited Y next to an active X is a renewable row: the
finished phase exhausted the active trees' neighbourhoods, and the statistics
pass has just recycled the renewable rows. So a sweep from the active X
(top-down) and a sweep over the renewable rows (bottom-up, Algorithm 7) must
claim exactly the same Y set; they may differ only in the parent each row
gets. These tests run the numpy engine and, at every graft, clone the forest
and run both sweeps on the clones.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.engine_loop import run_phases
from repro.core.engine_numpy import NumpySteps
from repro.core.forest import ForestState
from repro.core.invariants import check_all_invariants
from repro.core.options import GraftOptions
from repro.graph.generators import random_bipartite
from repro.matching.greedy import greedy_matching
from repro.matching.verify import verify_maximum
from tests.core.test_engine_loop_parity import GRAPHS
from tests.matching.test_differential import scipy_cardinality


def clone_state(state: ForestState) -> ForestState:
    twin = ForestState(state.n_x, state.n_y, state.deg_y)
    for name in ForestState.__slots__:
        value = getattr(state, name)
        if isinstance(value, np.ndarray):
            value = value.copy()
        elif isinstance(value, list):
            value = [part.copy() for part in value]
        setattr(twin, name, value)
    return twin


class SweepBothSteps(NumpySteps):
    """numpy's steps; every graft first runs both sweeps on clones."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.checked = 0
        self.chosen: list[bool] = []

    def _sweep(self, top_down: bool):
        twin = copy.copy(self)
        twin.state = clone_state(self.state)
        twin.matching = self.matching.copy()
        twin.workspace = kernels.KernelWorkspace.for_graph(self.graph)
        twin.trace = None
        frontier, edges, grafted = NumpySteps.graft(twin, top_down)
        check_all_invariants(self.graph, twin.state, twin.matching)
        return twin.state, frontier, grafted

    def graft(self, top_down: bool):
        td_state, td_frontier, td_grafted = self._sweep(True)
        bu_state, bu_frontier, bu_grafted = self._sweep(False)
        assert np.array_equal(td_state.visited, bu_state.visited)
        assert np.array_equal(np.sort(td_frontier), np.sort(bu_frontier))
        assert td_grafted == bu_grafted
        assert td_state.num_unvisited_y == bu_state.num_unvisited_y
        assert td_state.unvisited_deg == bu_state.unvisited_deg
        self.checked += 1
        self.chosen.append(top_down)
        return super().graft(top_down)


def run_checked(graph, initial, direction_optimizing=True):
    options = GraftOptions(direction_optimizing=direction_optimizing)
    made = []

    def setup(matching, counters):
        state = ForestState.for_graph(graph)
        workspace = kernels.KernelWorkspace.for_graph(graph)
        made.append(SweepBothSteps(graph, matching, options, state, workspace))
        return made[0]

    result = run_phases("numpy", graph, initial, options, setup)
    assert result.cardinality == scipy_cardinality(graph)
    verify_maximum(graph, result.matching)
    return result, made[0]


@pytest.mark.parametrize("graph_name", list(GRAPHS))
@pytest.mark.parametrize("direction_optimizing", [True, False])
def test_both_sweeps_claim_the_same_rows(graph_name, direction_optimizing):
    graph, initial = GRAPHS[graph_name]()
    result, steps = run_checked(graph, initial, direction_optimizing)
    assert steps.checked == result.counters.phases - 1 - result.counters.tree_rebuilds
    if not direction_optimizing:
        # The Fig. 7 ablation keeps the paper's bottom-up sweep.
        assert not any(steps.chosen)


def test_topdown_graft_fires_on_er():
    graph, initial = GRAPHS["er"]()
    _, steps = run_checked(graph, initial)
    assert any(steps.chosen)


@given(
    n_x=st.integers(1, 60),
    n_y=st.integers(1, 60),
    density=st.floats(0.02, 0.3),
    seed=st.integers(0, 10_000),
    warm=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_both_sweeps_claim_the_same_rows_on_random_graphs(n_x, n_y, density, seed, warm):
    graph = random_bipartite(n_x, n_y, max(1, int(density * n_x * n_y)), seed=seed)
    initial = greedy_matching(graph, shuffle=True, seed=seed).matching if warm else None
    run_checked(graph, initial)
