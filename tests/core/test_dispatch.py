"""Backend dispatcher: the cost model that picks python vs numpy.

The dispatcher mirrors the paper's direction-optimization rule in shape —
one work estimate against one calibrated threshold — so these tests pin
its decision table rather than timings (timings live in
``benchmarks/BENCH_kernels.json``).
"""

import numpy as np
import pytest

import repro
from repro.core.driver import available_cores, choose_engine, ms_bfs_graft
from repro.core.options import (
    DISPATCH_WORK_THRESHOLD,
    MP_DISPATCH_MIN_WORK,
    DispatchDecision,
)
from repro.errors import ReproError
from repro.graph.generators import chain_graph, random_bipartite, rmat_bipartite


@pytest.fixture(scope="module")
def small_graph():
    # work = nnz + n_x + n_y = 120 + 60 << threshold
    return random_bipartite(30, 30, 120, seed=3)


@pytest.fixture(scope="module")
def large_graph():
    # work = 9000 + 3000 >> threshold
    return random_bipartite(1500, 1500, 9000, seed=3)


class TestChooseEngine:
    def test_small_graph_uses_python(self, small_graph):
        decision = choose_engine(small_graph, emit_trace=False)
        assert decision.engine == "python"
        assert decision.work == small_graph.nnz + 60
        assert decision.work < decision.threshold == DISPATCH_WORK_THRESHOLD

    def test_large_graph_uses_numpy(self, large_graph):
        decision = choose_engine(large_graph, emit_trace=False)
        assert decision.engine == "numpy"
        assert decision.work >= decision.threshold

    def test_trace_request_forces_numpy(self, small_graph):
        # Only the vectorized backend emits WorkTraces; auto must honour that
        # even when the cost model would prefer python.
        decision = choose_engine(small_graph, emit_trace=True)
        assert decision.engine == "numpy"
        assert "trace" in decision.reason

    def test_threshold_is_overridable(self, small_graph, large_graph):
        assert choose_engine(small_graph, emit_trace=False, threshold=1).engine == "numpy"
        assert (
            choose_engine(large_graph, emit_trace=False, threshold=10**9).engine
            == "python"
        )

    def test_decision_is_a_frozen_record(self, small_graph):
        decision = choose_engine(small_graph, emit_trace=False)
        assert isinstance(decision, DispatchDecision)
        with pytest.raises(AttributeError):
            decision.engine = "numpy"
        assert decision.reason  # human-readable, never empty


@pytest.fixture(scope="module")
def huge_graph():
    # work = nnz + n_x + n_y must clear MP_DISPATCH_MIN_WORK.
    n = 40_000
    return random_bipartite(n, n, MP_DISPATCH_MIN_WORK, seed=3)


class TestMpDispatch:
    """The worker-count term: mp enters the decision only on request, and
    only when the pool can actually run in parallel."""

    def test_default_never_considers_mp(self, large_graph):
        # workers defaults to 1: every pre-existing decision is unchanged.
        decision = choose_engine(large_graph, emit_trace=False)
        assert decision.engine == "numpy"
        assert "mp" not in decision.reason

    def test_mp_picked_with_cores_and_work(self, huge_graph):
        decision = choose_engine(huge_graph, emit_trace=False, workers=4, cores=8)
        assert decision.engine == "mp"
        assert "usable workers" in decision.reason

    def test_mp_declined_on_one_core(self, huge_graph):
        # The acceptance criterion's honest branch: on a single-core host
        # the cost model must decline, with the core count in the reason.
        decision = choose_engine(huge_graph, emit_trace=False, workers=4, cores=1)
        assert decision.engine == "numpy"
        assert "mp declined" in decision.reason and "cores=1" in decision.reason

    def test_mp_declined_below_work_floor(self, large_graph):
        # large_graph clears the python/numpy threshold but not the mp floor.
        assert large_graph.nnz + large_graph.n_x + large_graph.n_y < MP_DISPATCH_MIN_WORK
        decision = choose_engine(large_graph, emit_trace=False, workers=4, cores=8)
        assert decision.engine == "numpy"
        assert "mp declined" in decision.reason and "work estimate" in decision.reason

    def test_worker_request_capped_by_cores(self, huge_graph):
        decision = choose_engine(huge_graph, emit_trace=False, workers=16, cores=2)
        assert decision.engine == "mp"
        assert "2 usable workers" in decision.reason

    def test_trace_still_forces_numpy(self, huge_graph):
        decision = choose_engine(huge_graph, emit_trace=True, workers=4, cores=8)
        assert decision.engine == "numpy"

    def test_small_graph_still_python(self, small_graph):
        # The python crossover outranks any worker request.
        decision = choose_engine(small_graph, emit_trace=False, workers=4, cores=8)
        assert decision.engine == "python"

    def test_live_cores_default_is_sane(self):
        assert available_cores() >= 1

    def test_auto_with_workers_end_to_end(self, large_graph):
        # Whatever the host's core count decides, auto + workers must still
        # produce the exact numpy answer (mp is trajectory-identical).
        auto = ms_bfs_graft(large_graph, engine="auto", workers=4, emit_trace=False)
        explicit = ms_bfs_graft(large_graph, engine="numpy", emit_trace=False)
        assert auto.cardinality == explicit.cardinality


class TestAutoDispatchEndToEnd:
    def test_auto_matches_explicit_engines(self, small_graph, large_graph):
        for graph in (small_graph, large_graph):
            auto = ms_bfs_graft(graph, engine="auto", emit_trace=False)
            assert (
                auto.cardinality
                == ms_bfs_graft(graph, engine="python", emit_trace=False).cardinality
                == ms_bfs_graft(graph, engine="numpy", emit_trace=False).cardinality
            )

    def test_auto_with_trace_emits_trace(self, small_graph):
        result = ms_bfs_graft(small_graph, engine="auto", emit_trace=True)
        assert result.trace is not None

    def test_auto_is_the_default(self):
        # chain_graph(3) is far below the threshold; the default engine must
        # still solve it exactly (dispatch is a perf decision, not semantic).
        result = repro.ms_bfs_graft(chain_graph(3))
        assert result.cardinality == 3

    def test_unknown_engine_rejected(self, small_graph):
        with pytest.raises(ReproError, match="unknown engine"):
            ms_bfs_graft(small_graph, engine="fortran")


@pytest.fixture(scope="module")
def small_rmat():
    return rmat_bipartite(scale=8, edge_factor=16, seed=103)


class _StatsFreeGraph:
    """Proxy that forwards everything but refuses the degree arrays."""

    def __init__(self, graph):
        self._graph = graph

    def __getattr__(self, name):
        if name in ("deg_x", "deg_y"):
            raise RuntimeError("degree statistics unavailable")
        return getattr(self._graph, name)


class TestJointReorderDispatch:
    """Vertex reordering is gone, but callers that still pass its keywords
    (the end-to-end benchmark's warm-rmat op does) keep working: ``"none"``
    and ``"auto"`` mean the caller's numbering, anything else is an error."""

    def _same_as_plain(self, graph, **kwargs):
        plain = ms_bfs_graft(graph, emit_trace=False)
        auto = ms_bfs_graft(graph, emit_trace=False, reorder="auto", **kwargs)
        assert (auto.matching.mate_x == plain.matching.mate_x).all()
        return auto

    def test_default_decision_keeps_original_numbering(self, large_graph):
        decision = choose_engine(large_graph, emit_trace=False)
        assert decision.reorder == "none"

    def test_auto_declines_below_work_floor(self, large_graph):
        decision = choose_engine(large_graph, emit_trace=False, reorder="auto")
        assert decision.reorder == "none"
        self._same_as_plain(large_graph)

    def test_auto_declines_on_regular_degrees(self):
        # Every x and every y has degree 2.
        from repro.graph.builder import from_edges

        n = 20_000
        x = np.repeat(np.arange(n, dtype=np.int64), 2)
        y = np.stack(
            [np.arange(n, dtype=np.int64), (np.arange(n, dtype=np.int64) + 1) % n],
            axis=1,
        ).reshape(-1)
        graph = from_edges(n, n, np.stack([x, y], axis=1))
        decision = choose_engine(graph, emit_trace=False, reorder="auto")
        assert decision.reorder == "none"
        assert self._same_as_plain(graph).cardinality == n

    def test_stats_free_fallback_without_flight(self, large_graph):
        # The decision never needs the degree arrays.
        decision = choose_engine(
            _StatsFreeGraph(large_graph), emit_trace=False, reorder="auto"
        )
        assert decision.reorder == "none"

    def test_driver_reorder_end_to_end_with_telemetry(self, large_graph):
        from repro.telemetry import Telemetry

        tel = Telemetry()
        self._same_as_plain(large_graph, telemetry=tel)
        assert tel.tracer.spans and tel.metrics.families()
        assert not any("reorder" in s.name for s in tel.tracer.spans)
        assert not any("reorder" in name for name, *_ in tel.metrics.families())

    def test_frozen_caller_sequence(self, small_rmat):
        from repro.bench.runner import run_algorithm, suite_initializer
        from repro.telemetry import Telemetry

        from tests.matching.test_differential import scipy_cardinality

        expected = scipy_cardinality(small_rmat)
        initial = suite_initializer(small_rmat)
        decision = choose_engine(small_rmat, reorder="auto", workers=1)
        assert decision.reorder == "none"
        via_runner = run_algorithm(
            "ms-bfs-graft", small_rmat, initial,
            reorder=decision.reorder, reorder_plan=None, reorder_layout=None,
        )
        tel = Telemetry()
        via_driver = ms_bfs_graft(
            small_rmat, initial, engine=decision.engine, telemetry=tel,
            reorder_plan=None, reorder_layout=None,
        )
        via_ms_bfs = repro.ms_bfs(small_rmat, initial, reorder="auto")
        for result in (via_runner, via_driver, via_ms_bfs):
            assert result.cardinality == expected
        assert not any(s.name.startswith("reorder") for s in tel.tracer.spans)

    def test_unknown_reorder_rejected(self, small_rmat):
        from repro.bench.runner import run_algorithm

        for strategy in ("hubsplit", "degree", "bfs", "metis"):
            with pytest.raises(ReproError, match="reordering was removed"):
                choose_engine(small_rmat, reorder=strategy)
            with pytest.raises(ReproError, match="reordering was removed"):
                ms_bfs_graft(small_rmat, reorder=strategy)
            with pytest.raises(ReproError, match="reordering was removed"):
                run_algorithm("hopcroft-karp", small_rmat, reorder=strategy)
        with pytest.raises(ReproError, match="reordering was removed"):
            ms_bfs_graft(small_rmat, reorder_plan=object())
        with pytest.raises(ReproError, match="reordering was removed"):
            run_algorithm("ms-bfs-graft", small_rmat, reorder_layout=small_rmat)
