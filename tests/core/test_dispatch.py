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
    REORDER_MIN_WORK,
    DispatchDecision,
)
from repro.errors import ReproError
from repro.graph.generators import chain_graph, power_law_bipartite, random_bipartite


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
def big_skewed():
    # work well above REORDER_MIN_WORK, strongly skewed degrees.
    return power_law_bipartite(
        20_000, 20_000, avg_degree=4.0, exponent=2.0, seed=7
    )


class _StatsFreeGraph:
    """Proxy that forwards everything but refuses the degree arrays —
    exercises the dispatcher's deterministic stats-free fallback."""

    def __init__(self, graph):
        self._graph = graph

    def __getattr__(self, name):
        if name in ("deg_x", "deg_y"):
            raise RuntimeError("degree statistics unavailable")
        return getattr(self._graph, name)


class TestJointReorderDispatch:
    """The locality term: ordering and backend are one decision."""

    def test_default_decision_keeps_original_numbering(self, large_graph):
        decision = choose_engine(large_graph, emit_trace=False)
        assert decision.reorder == "none"

    def test_auto_picks_hubsplit_on_big_skewed(self, big_skewed):
        decision = choose_engine(big_skewed, emit_trace=False, reorder="auto")
        assert decision.reorder == "hubsplit"
        assert "degree skew" in decision.reorder_reason

    def test_auto_declines_below_work_floor(self, large_graph):
        work = large_graph.nnz + large_graph.n_x + large_graph.n_y
        assert work < REORDER_MIN_WORK
        decision = choose_engine(large_graph, emit_trace=False, reorder="auto")
        assert decision.reorder == "none"
        assert "below the reorder floor" in decision.reorder_reason

    def test_auto_declines_on_regular_degrees(self):
        # Every x has degree 2, every y has degree 2: relabelling cannot
        # change the claim-collision structure, so auto must decline even
        # though the work estimate clears the floor.
        from repro.graph.builder import from_edges

        n = 20_000
        x = np.repeat(np.arange(n, dtype=np.int64), 2)
        y = np.stack(
            [np.arange(n, dtype=np.int64), (np.arange(n, dtype=np.int64) + 1) % n],
            axis=1,
        ).reshape(-1)
        graph = from_edges(n, n, np.stack([x, y], axis=1))
        assert graph.nnz + 2 * n >= REORDER_MIN_WORK
        decision = choose_engine(graph, emit_trace=False, reorder="auto")
        assert decision.reorder == "none"
        assert "regular" in decision.reorder_reason

    def test_explicit_strategy_passes_through(self, small_graph):
        decision = choose_engine(small_graph, emit_trace=False, reorder="hubsplit")
        assert decision.reorder == "hubsplit"
        assert "explicitly requested" in decision.reorder_reason

    def test_unknown_reorder_rejected(self, small_graph):
        for reorder in ("metis", "degree", "bfs"):
            with pytest.raises(ReproError, match="unknown reorder"):
                choose_engine(small_graph, emit_trace=False, reorder=reorder)

    def test_stats_free_fallback_is_deterministic_and_noted(self, big_skewed):
        from repro.telemetry.flight import FlightRecorder

        flight = FlightRecorder()
        proxy = _StatsFreeGraph(big_skewed)
        decision = choose_engine(
            proxy, emit_trace=False, reorder="auto", flight=flight
        )
        assert decision.reorder == "none"
        assert "statistics unavailable" in decision.reorder_reason
        kinds = [event["kind"] for event in flight.snapshot()]
        assert "reorder_fallback" in kinds

    def test_stats_free_fallback_without_flight(self, big_skewed):
        # No recorder attached: still degrades, never raises.
        decision = choose_engine(
            _StatsFreeGraph(big_skewed), emit_trace=False, reorder="auto"
        )
        assert decision.reorder == "none"

    def test_driver_reorder_end_to_end_with_telemetry(self, big_skewed):
        from repro.telemetry import Telemetry

        plain = ms_bfs_graft(big_skewed, emit_trace=False)
        tel = Telemetry()
        reordered = ms_bfs_graft(
            big_skewed, emit_trace=False, reorder="hubsplit", telemetry=tel
        )
        assert reordered.cardinality == plain.cardinality
        runs = tel.metrics.get(
            "repro_reorder_runs_total", {"strategy": "hubsplit"}
        )
        assert runs is not None and runs.value >= 1.0
        plans = tel.metrics.get(
            "repro_reorder_plans_total", {"strategy": "hubsplit"}
        )
        assert plans is not None and plans.value >= 1.0
        names = {span.name for span in tel.tracer.spans}
        assert {"reorder_plan", "reorder_apply", "reorder_invert"} <= names
