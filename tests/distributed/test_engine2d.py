"""2D-grid distributed MS-BFS-Graft: correctness + communication scoping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import EXPECTED_MAXIMUM, SMALL_GRAPHS, reference_maximum

from repro.core.driver import ms_bfs_graft
from repro.distributed import distributed_ms_bfs_graft, distributed_ms_bfs_graft_2d
from repro.core.options import GraftOptions
from repro.distributed.engine import Forest1D, run_bsp
from repro.distributed.grid import Grid2D
from repro.distributed.partition import Partition1D
from repro.errors import ReproError
from repro.graph.generators import random_bipartite, surplus_core_bipartite
from repro.matching.greedy import greedy_matching
from repro.matching.verify import verify_maximum


class TestGrid2D:
    def test_square_factorisation(self):
        g = random_bipartite(10, 10, 20, seed=0)
        assert (Grid2D.square(g, 16).rows, Grid2D.square(g, 16).cols) == (4, 4)
        assert (Grid2D.square(g, 6).rows, Grid2D.square(g, 6).cols) == (2, 3)
        assert (Grid2D.square(g, 7).rows, Grid2D.square(g, 7).cols) == (1, 7)

    def test_invalid_grid(self):
        g = random_bipartite(4, 4, 4, seed=0)
        with pytest.raises(ReproError):
            Grid2D(g, 0, 2)

    def test_owners_in_range(self):
        g = random_bipartite(23, 17, 60, seed=1)
        grid = Grid2D(g, 3, 4)
        xs = np.arange(23)
        ys = np.arange(17)
        assert grid.owner_x(xs).max() < 12
        assert grid.owner_y(ys).max() < 12

    def test_blocks_cover(self):
        g = random_bipartite(23, 17, 60, seed=1)
        grid = Grid2D(g, 3, 4)
        assert grid.x_bounds[-1] == 23
        assert grid.y_bounds[-1] == 17


@pytest.mark.parametrize("ranks", [1, 4, 6, 9])
class TestCorrectness2D:
    def test_zoo_maximum(self, ranks, zoo_graph):
        name, graph = zoo_graph
        result = distributed_ms_bfs_graft_2d(graph, ranks=ranks)
        verify_maximum(graph, result.matching)
        if name in EXPECTED_MAXIMUM:
            assert result.cardinality == EXPECTED_MAXIMUM[name]

    def test_flag_combinations(self, ranks):
        graph = SMALL_GRAPHS["surplus"]
        init = greedy_matching(graph, shuffle=True, seed=2).matching
        for g in (True, False):
            for d in (True, False):
                result = distributed_ms_bfs_graft_2d(
                    graph, init, ranks=ranks, grafting=g, direction_optimizing=d
                )
                verify_maximum(graph, result.matching)


class TestAgainst1DAndShared:
    @given(
        n_x=st.integers(2, 22),
        n_y=st.integers(2, 22),
        seed=st.integers(0, 300),
        ranks=st.integers(1, 9),
    )
    @settings(max_examples=25, deadline=None)
    def test_same_cardinality(self, n_x, n_y, seed, ranks):
        graph = random_bipartite(n_x, n_y, min(n_x * n_y, 3 * n_x), seed=seed)
        expected = ms_bfs_graft(graph, emit_trace=False).cardinality
        result = distributed_ms_bfs_graft_2d(graph, ranks=ranks)
        assert result.cardinality == expected
        assert result.cardinality == reference_maximum(graph)

    def test_rectangular_grid(self):
        graph = surplus_core_bipartite(200, 120, seed=4)
        grid = Grid2D(graph, rows=2, cols=5)
        result = distributed_ms_bfs_graft_2d(graph, ranks=0, grid=grid)
        verify_maximum(graph, result.matching)
        assert result.ranks == 10


class TestCommunicationScoping:
    def test_2d_moves_fewer_bytes_at_scale(self):
        graph = surplus_core_bipartite(4000, 2400, seed=5)
        init = greedy_matching(graph, shuffle=True, seed=1).matching
        one_d = distributed_ms_bfs_graft(graph, init, ranks=64)
        two_d = distributed_ms_bfs_graft_2d(graph, init, ranks=64)
        assert one_d.cardinality == two_d.cardinality
        # The row/column-scoped collectives are the communication-avoiding
        # point of 2D: total traffic must drop markedly at 64 ranks.
        assert two_d.log.total_bytes < 0.8 * one_d.log.total_bytes

    def test_single_rank_free(self):
        graph = surplus_core_bipartite(200, 120, seed=6)
        result = distributed_ms_bfs_graft_2d(graph, ranks=1)
        assert result.log.total_bytes == 0.0

    def test_superstep_labels(self):
        graph = surplus_core_bipartite(300, 180, seed=7)
        init = greedy_matching(graph, shuffle=True, seed=1).matching
        result = distributed_ms_bfs_graft_2d(graph, init, ranks=4)
        labels = result.log.by_label()
        assert any(k.endswith("-bitmap") or k.endswith("-fbcast") for k in labels)
        assert "statistics" in labels


@pytest.mark.parametrize("shape", [(2, 5), (1, 3), (3, 3)])
def test_statistics_and_rebuild_charge_the_owned_blocks(shape):
    # Vertex state lives only on the owner of each X-block (grid diagonal of
    # its row) and each Y-block, so the slowest rank in the statistics sweep
    # holds the largest owned |X| + |Y|, and in a rebuild the largest owned |Y|.
    graph = surplus_core_bipartite(500, 300, seed=7)
    grid = Grid2D(graph, *shape)
    owned_x = np.zeros(grid.ranks)
    owned_y = np.zeros(grid.ranks)
    for i in range(grid.rows):
        lo, hi = grid.x_range(i)
        owned_x[grid.rank_of(i, i % grid.cols)] += hi - lo
    for j in range(grid.cols):
        lo, hi = grid.y_range(j)
        owned_y[grid.rank_of(j % grid.rows, j)] += hi - lo
    options = GraftOptions(grafting=False)
    result = distributed_ms_bfs_graft_2d(graph, grid=grid, options=options)
    steps = {s.label: s for s in result.log.steps}
    assert steps["statistics"].compute.max() == (owned_x + owned_y).max()
    assert steps["rebuild"].compute.max() == owned_y.max()
    assert steps["statistics"].compute.sum() == graph.n_x + graph.n_y


@pytest.mark.parametrize(
    "engine", [distributed_ms_bfs_graft, distributed_ms_bfs_graft_2d]
)
def test_edge_direction_rule_runs(engine):
    # The forest keeps the unvisited-Y degree sum live, so the shared loop's
    # degree-weighted direction rule runs on both decompositions.
    options = GraftOptions(direction_strategy="edge")
    bottomup = 0
    for seed in range(4):
        graph = random_bipartite(60, 50, 240, seed=seed)
        result = engine(graph, ranks=3, options=options)
        verify_maximum(graph, result.matching)
        assert result.cardinality == reference_maximum(graph)
        bottomup += result.counters.bottomup_steps
    assert bottomup > 0


class _CheckedForest(Forest1D):
    def end_phase(self, phase):
        unvisited = self.visited == 0
        assert self.num_unvisited_y == int(unvisited.sum())
        assert self.unvisited_deg == int(self.deg_y[unvisited].sum())


@pytest.mark.parametrize("grafting", [True, False])
def test_unvisited_counters_stay_exact(grafting):
    graph = surplus_core_bipartite(200, 120, seed=4)
    part = Partition1D(graph, 3)
    options = GraftOptions(grafting=grafting, direction_strategy="edge")
    result = run_bsp(
        "bsp-1d", graph, None, options, lambda m: _CheckedForest(graph, m, part)
    )
    verify_maximum(graph, result.matching)
