"""Backend dispatcher: the cost model that picks python vs numpy.

The dispatcher mirrors the paper's direction-optimization rule in shape —
one work estimate against one calibrated threshold — so these tests pin
its decision table rather than timings (timings live in
``benchmarks/BENCH_kernels.json``).
"""

from dataclasses import asdict

import numpy as np
import pytest

import repro
from repro.bench.runner import run_algorithm
from repro.core.driver import ENGINES, choose_engine, ms_bfs_graft
from repro.core.options import DISPATCH_WORK_THRESHOLD, DispatchDecision
from repro.errors import ReproError, ServiceError
from repro.graph.generators import chain_graph, random_bipartite, rmat_bipartite
from repro.telemetry import Telemetry


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

    def test_threshold_lies_in_the_calibrated_band(self):
        # docs/performance.md, "Calibration": python wins on every graph
        # measured up to work 2,400 and numpy on every graph from 7,200.
        assert 2_400 < DISPATCH_WORK_THRESHOLD < 7_200

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


class TestTraceIsOptIn:
    """No run pays for a work trace it did not ask for, so ``engine="auto"``
    dispatches on work alone."""

    @pytest.fixture
    def engines_run(self, monkeypatch):
        import repro.core.driver as driver

        seen = []
        for name in ("run_python", "run_numpy"):
            real = getattr(driver, name)

            def wrapped(*args, _real=real, _name=name, **kwargs):
                seen.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(driver, name, wrapped)
        return seen

    def test_auto_default_is_work_only(self, small_graph, large_graph, engines_run):
        ms_bfs_graft(small_graph)
        run_algorithm("ms-bfs-graft", small_graph)
        ms_bfs_graft(large_graph)
        assert engines_run == ["run_python", "run_python", "run_numpy"]

    def test_auto_with_trace_request_runs_numpy(self, small_graph, engines_run):
        assert ms_bfs_graft(small_graph, emit_trace=True).trace is not None
        assert engines_run == ["run_numpy"]

    def test_direct_choose_engine_default_keeps_numpy(self, small_graph):
        # e2ebench/offline.py times the engine this call returns under a
        # coverage gate sized for numpy ops on its smallest graphs.
        assert choose_engine(small_graph).engine == "numpy"
        assert choose_engine(small_graph) == choose_engine(small_graph, emit_trace=True)

    def test_ms_bfs_graft_default_has_no_trace(self, small_graph, large_graph):
        assert ms_bfs_graft(small_graph).trace is None
        assert ms_bfs_graft(large_graph).trace is None

    def test_run_algorithm_default_has_no_trace(self, large_graph):
        assert run_algorithm("ms-bfs-graft", large_graph).trace is None

    def test_forest_state_has_no_packed_mirror(self):
        from repro.core.forest import ForestState

        assert "visited_words" not in ForestState.__slots__
        assert not hasattr(ForestState(4, 4, np.ones(4, dtype=np.int64)), "visited_words")


class TestMpDispatch:
    """No decision is ever the removed process-pool engine: ``workers`` is
    accepted for older callers and changes nothing."""

    def test_default_never_considers_mp(self, large_graph):
        decision = choose_engine(large_graph, emit_trace=False)
        assert decision.engine == "numpy"
        assert "mp" not in decision.reason

    def test_trace_still_forces_numpy(self, large_graph):
        decision = choose_engine(large_graph, emit_trace=True, workers=4)
        assert decision.engine == "numpy"

    def test_small_graph_still_python(self, small_graph):
        decision = choose_engine(small_graph, emit_trace=False, workers=4)
        assert decision.engine == "python"

    def test_auto_with_workers_end_to_end(self, large_graph):
        auto = ms_bfs_graft(large_graph, engine="auto", workers=4, emit_trace=False)
        explicit = ms_bfs_graft(large_graph, engine="numpy", emit_trace=False)
        assert (auto.matching.mate_x == explicit.matching.mate_x).all()
        assert asdict(auto.counters) == asdict(explicit.counters)


@pytest.fixture(scope="module")
def scratch_er():
    # The end-to-end benchmark's scratch-er shape, at 2^11 per side.
    n = 1 << 11
    return random_bipartite(n, n - n // 64, 6 * n, seed=7)


def _same_run(a, b):
    assert (a.matching.mate_x == b.matching.mate_x).all()
    assert (a.matching.mate_y == b.matching.mate_y).all()
    assert asdict(a.counters) == asdict(b.counters)


class TestFrozenBenchmarkCalls:
    """The calls the end-to-end benchmark (``e2ebench/offline.py``) makes
    with ``workers=2`` return exactly what they return without it."""

    def test_choose_engine(self, scratch_er):
        assert choose_engine(scratch_er, workers=2) == choose_engine(scratch_er)

    def test_ms_bfs_graft_with_telemetry(self, scratch_er):
        d = choose_engine(scratch_er, workers=2)
        with_workers = ms_bfs_graft(scratch_er, engine=d.engine, workers=2,
                                    telemetry=Telemetry())
        without = ms_bfs_graft(scratch_er, engine=d.engine, telemetry=Telemetry())
        _same_run(with_workers, without)

    def test_run_algorithm_from_empty(self, scratch_er):
        with_workers = run_algorithm("ms-bfs-graft", scratch_er, init="none", workers=2)
        without = run_algorithm("ms-bfs-graft", scratch_er, init="none")
        _same_run(with_workers, without)


class TestOneEngineList:
    """``core.driver.ENGINES`` is the one list of engine names; the driver,
    the batch job model and the CLI all reject anything else by it."""

    def test_engines(self):
        from repro.service import jobs

        assert ENGINES == ("auto", "numpy", "python", "interleaved")
        assert jobs.ENGINES is ENGINES

    def test_driver_rejects_mp(self, small_graph):
        with pytest.raises(ReproError, match="unknown engine 'mp'") as err:
            ms_bfs_graft(small_graph, engine="mp")
        assert all(name in str(err.value) for name in ENGINES)

    def test_job_spec_rejects_mp(self):
        from repro.service.jobs import JobSpec

        with pytest.raises(ServiceError, match="unknown engine 'mp'") as err:
            JobSpec(job_id="j", graph={"suite": "rmat", "scale": 0.05}, engine="mp")
        assert all(name in str(err.value) for name in ENGINES)

    @pytest.mark.parametrize("command", ["run", "batch"])
    def test_cli_rejects_mp(self, command, capsys):
        from repro.cli import build_parser

        argv = {
            "run": ["run"],
            "batch": ["batch", "--run-dir", "d"],
        }[command]
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([*argv, "--engine", "mp"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'mp'" in err
        assert all(f"'{name}'" in err for name in ENGINES)


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
        via_ms_bfs = repro.ms_bfs(small_rmat, initial)
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
