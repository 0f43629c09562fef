import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import kernels
from repro.core.driver import ms_bfs_graft
from repro.core.engine_interleaved import _InterleavedSteps
from repro.core.engine_numpy import NumpySteps
from repro.core.forest import ForestState
from repro.core.invariants import check_all_invariants
from repro.errors import InvariantViolation
from repro.graph.builder import from_edges
from repro.graph.generators import random_bipartite
from repro.matching.base import Matching
from repro.matching.greedy import greedy_matching


class TestInitialState:
    def test_sizes(self):
        s = ForestState(3, 5, np.ones(5, dtype=np.int64))
        assert s.visited.shape == (5,)
        assert s.root_x.shape == (3,)
        assert s.num_unvisited_y == 5

    def test_for_graph(self):
        g = from_edges(2, 4, [(0, 0)])
        s = ForestState.for_graph(g)
        assert s.n_x == 2 and s.n_y == 4

    def test_all_unset(self):
        s = ForestState(2, 2, np.ones(2, dtype=np.int64))
        assert not s.visited.any()
        assert (s.parent == -1).all()
        assert (s.leaf == -1).all()


class TestMasks:
    def test_active_and_renewable_disjoint(self):
        g = random_bipartite(20, 20, 70, seed=0)
        m = greedy_matching(g, shuffle=True, seed=1).matching
        s = ForestState.for_graph(g)
        f = kernels.rebuild_from_unmatched(s, m)
        while f.size:
            f = kernels.topdown_level(g, s, m, f).next_frontier
        ax, rx = s.active_x_mask(), s.renewable_x_mask()
        assert not (ax & rx).any()
        ay, ry = s.active_y_mask(), s.renewable_y_mask()
        assert not (ay & ry).any()

    def test_vertex_not_in_tree_in_neither(self):
        s = ForestState(3, 3, np.ones(3, dtype=np.int64))
        assert not s.active_x_mask().any()
        assert not s.renewable_x_mask().any()


class TestInvariantChecker:
    def _grown(self):
        g = random_bipartite(15, 15, 60, seed=3)
        m = greedy_matching(g).matching
        s = ForestState.for_graph(g)
        f = kernels.rebuild_from_unmatched(s, m)
        while f.size:
            f = kernels.topdown_level(g, s, m, f).next_frontier
        return g, m, s

    def test_passes_on_valid_forest(self):
        g, m, s = self._grown()
        check_all_invariants(g, s, m)

    def test_detects_bad_parent_edge(self):
        g, m, s = self._grown()
        visited = np.flatnonzero(s.visited)
        if visited.size:
            y = int(visited[0])
            # point the parent at a non-neighbour
            bad = next(x for x in range(g.n_x) if not g.has_edge(x, y))
            s.parent[y] = bad
            with pytest.raises(InvariantViolation):
                check_all_invariants(g, s, m)

    def test_detects_root_mismatch(self):
        g, m, s = self._grown()
        visited = np.flatnonzero(s.visited)
        if visited.size:
            y = int(visited[0])
            s.root_y[y] = -1
            with pytest.raises(InvariantViolation):
                check_all_invariants(g, s, m)

    @pytest.mark.parametrize("counter", ["num_unvisited_y", "unvisited_deg", "num_candidates"])
    def test_detects_drifted_counter(self, counter):
        g, m, s = self._grown()
        setattr(s, counter, getattr(s, counter) - 1)
        with pytest.raises(InvariantViolation, match=counter):
            check_all_invariants(g, s, m)

    @pytest.mark.parametrize("counter", ["num_unvisited_y", "unvisited_deg", "num_candidates"])
    @pytest.mark.parametrize("engine, steps", [
        ("numpy", NumpySteps),
        ("interleaved", _InterleavedSteps),
    ])
    def test_engine_check_catches_drifted_counter(self, monkeypatch, engine, steps, counter):
        end_phase = steps.end_phase

        def drifting_end_phase(self, phase):
            setattr(self.state, counter, getattr(self.state, counter) + 1)
            end_phase(self, phase)

        monkeypatch.setattr(steps, "end_phase", drifting_end_phase)
        graph = random_bipartite(40, 40, 120, seed=3)
        with pytest.raises(InvariantViolation, match=counter):
            ms_bfs_graft(graph, engine=engine, check_invariants=True)
        # the same run without the drift passes its checks
        monkeypatch.setattr(steps, "end_phase", end_phase)
        ms_bfs_graft(graph, engine=engine, check_invariants=True)

    @pytest.mark.parametrize("engine, steps", [
        ("numpy", "repro.core.engine_numpy:NumpySteps"),
        ("interleaved", "repro.core.engine_interleaved:_InterleavedSteps"),
    ])
    def test_engine_check_survives_python_O(self, engine, steps):
        # An engine run with check_invariants=True must still catch a
        # visited Y with no parent when asserts are compiled out.
        module, cls = steps.split(":")
        script = textwrap.dedent(f"""
            import importlib
            import numpy as np
            from repro.core.driver import ms_bfs_graft
            from repro.errors import InvariantViolation
            from repro.graph.generators import random_bipartite

            steps = getattr(importlib.import_module("{module}"), "{cls}")
            end_phase = steps.end_phase
            def corrupting_end_phase(self, phase):
                visited = np.flatnonzero(self.state.visited)
                if visited.size == 0:
                    raise SystemExit("no visited Y to corrupt")
                self.state.parent[visited[0]] = -1
                end_phase(self, phase)
            steps.end_phase = corrupting_end_phase
            try:
                ms_bfs_graft(random_bipartite(40, 40, 120, seed=3),
                             engine="{engine}", check_invariants=True)
            except InvariantViolation as exc:
                print("caught:", exc)
            else:
                raise SystemExit("corrupted forest passed the invariant check")
        """)
        src = str(Path(repro.__file__).parent.parent)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr or proc.stdout
        assert "has no parent" in proc.stdout


class TestPathToRoot:
    def test_alternation(self):
        g = from_edges(2, 2, [(0, 0), (1, 0), (1, 1)])
        m = Matching.from_pairs(2, 2, [(1, 0)])
        s = ForestState.for_graph(g)
        f = kernels.rebuild_from_unmatched(s, m)
        while f.size:
            f = kernels.topdown_level(g, s, m, f).next_frontier
        path = s.alternating_path_to_root(m, int(s.leaf[0]))
        # y1 -> x1 -> y0 -> x0: 4 vertices, ends at the root.
        assert path == [1, 1, 0, 0]
