"""End-to-end telemetry: every engine produces the same span/metric shape."""

import pytest

from repro.core.driver import ms_bfs_graft
from repro.graph.generators import random_bipartite, surplus_core_bipartite
from repro.matching.greedy import greedy_matching
from repro.errors import TelemetryError
from repro.instrument.counters import Counters
from repro.instrument.frontier import FrontierLog
from repro.telemetry.exporters import lint_prometheus, prometheus_text
from repro.telemetry.session import NULL_TELEMETRY, NullTelemetry, Telemetry

ENGINES = ("python", "numpy", "interleaved")


@pytest.fixture(scope="module")
def graph():
    return surplus_core_bipartite(1200, 700, seed=3)


@pytest.fixture(scope="module")
def runs(graph):
    init = greedy_matching(graph, shuffle=True, seed=1).matching
    out = {}
    for engine in ENGINES:
        tel = Telemetry()
        result = ms_bfs_graft(graph, init, engine=engine, telemetry=tel)
        out[engine] = (tel, result)
    return out


class TestEngineInstrumentation:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_run_root_span_with_attributes(self, runs, graph, engine):
        tel, _ = runs[engine]
        roots = tel.tracer.roots()
        assert len(roots) == 1
        root = roots[0]
        assert root.name == "run"
        assert root.attributes["engine"] == engine
        assert root.attributes["nnz"] == graph.nnz
        assert not root.open

    @pytest.mark.parametrize("engine", ENGINES)
    def test_phase_spans_match_counters(self, runs, engine):
        tel, result = runs[engine]
        assert len(tel.tracer.by_name("phase")) == result.counters.phases

    @pytest.mark.parametrize("engine", ENGINES)
    def test_coverage_accounts_for_most_wall_time(self, runs, engine):
        # The ≥0.95 acceptance bar is checked on suite-scale graphs by
        # `repro-match run --trace-out FILE --min-coverage` (see CI); on the
        # small graphs unit tests can afford, fixed span overhead eats a few
        # percent, so bound at 0.90 to stay deterministic across machines.
        tel, _ = runs[engine]
        assert tel.tracer.coverage() >= 0.90

    @pytest.mark.parametrize("engine", ENGINES)
    def test_edges_counter_matches_counters(self, runs, engine):
        tel, result = runs[engine]
        counter = tel.metrics.get("repro_edges_traversed_total")
        assert counter.value == result.counters.edges_traversed

    @pytest.mark.parametrize("engine", ENGINES)
    def test_augmentations_mirrored(self, runs, engine):
        tel, result = runs[engine]
        assert (
            tel.metrics.get("repro_augmentations_total").value
            == result.counters.augmentations
        )

    def test_all_engines_emit_same_span_vocabulary(self, runs):
        # Direction choices (topdown vs bottomup) may differ per engine on
        # the same graph; the structural names must not.
        canonical = {"run", "setup", "phase", "topdown", "bottomup",
                     "augment", "grafting", "statistics", "finalize"}
        structural = canonical - {"topdown", "bottomup"}
        for engine, (tel, _) in runs.items():
            vocab = {s.name for s in tel.tracer.spans}
            assert vocab <= canonical, engine
            assert structural <= vocab, engine
            assert vocab & {"topdown", "bottomup"}, engine

    def test_all_engines_emit_same_metric_families(self, runs):
        names = {
            engine: [f[0] for f in tel.metrics.families()]
            for engine, (tel, _) in runs.items()
        }
        assert names["python"] == names["numpy"] == names["interleaved"]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_exposition_lints_clean(self, runs, engine):
        tel, _ = runs[engine]
        assert lint_prometheus(prometheus_text(tel.metrics))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_result_identical_with_and_without_telemetry(self, graph, engine):
        init = greedy_matching(graph, shuffle=True, seed=1).matching
        plain = ms_bfs_graft(graph, init, engine=engine)
        traced = ms_bfs_graft(graph, init, engine=engine, telemetry=Telemetry())
        assert traced.matching.cardinality == plain.matching.cardinality
        assert traced.counters.phases == plain.counters.phases
        assert traced.counters.edges_traversed == plain.counters.edges_traversed


class TestGraftAttribution:
    """Grafting sweeps are attributed by direction through spans and
    metrics only; ``Counters`` (hashed by the parity golden) is unchanged."""

    DIRECTIONS = ("topdown", "bottomup")

    @staticmethod
    def run(engine, direction_optimizing=True):
        # The er parity graph: both sweep directions fire on it.
        graph = random_bipartite(120, 100, 400, seed=3)
        tel = Telemetry()
        result = ms_bfs_graft(
            graph, engine=engine, telemetry=tel, direction_optimizing=direction_optimizing
        )
        return tel, result

    @staticmethod
    def graft_metric(tel, family, direction):
        """``repro_graft_<family>_total{direction}``, 0 if never counted."""
        try:
            return tel.metrics.get(
                f"repro_graft_{family}_total", labels={"direction": direction}
            ).value
        except TelemetryError:
            return 0

    def sweeps(self, tel, direction):
        return self.graft_metric(tel, "sweeps", direction)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_grafting_spans_carry_direction(self, engine):
        tel, result = self.run(engine)
        spans = tel.tracer.by_name("grafting")
        swept = [s for s in spans if "direction" in s.attributes]
        assert {s.attributes["direction"] for s in swept} <= set(self.DIRECTIONS)
        assert len(spans) - len(swept) == result.counters.tree_rebuilds
        for direction in self.DIRECTIONS:
            assert self.sweeps(tel, direction) == sum(
                1 for s in swept if s.attributes["direction"] == direction
            )

    def test_numpy_sweeps_both_directions(self):
        tel, result = self.run("numpy")
        assert self.sweeps(tel, "topdown") > 0
        assert self.sweeps(tel, "bottomup") > 0
        total = sum(self.graft_metric(tel, "edges", d) for d in self.DIRECTIONS)
        assert 0 < total < result.counters.edges_traversed

    def test_ablation_keeps_the_bottomup_sweep(self):
        tel, result = self.run("numpy", direction_optimizing=False)
        assert result.counters.grafts > 0
        assert self.sweeps(tel, "topdown") == 0
        assert self.sweeps(tel, "bottomup") > 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_graft_exposition_lints_clean(self, engine):
        tel, _ = self.run(engine)
        text = prometheus_text(tel.metrics)
        assert 'repro_graft_sweeps_total{direction="' in text
        assert 'repro_graft_edges_total{direction="' in text
        assert lint_prometheus(text)

    def test_path_histogram_mirrors_counters(self):
        tel, result = self.run("numpy")
        hist = tel.metrics.get("repro_augmenting_path_length_edges")
        assert hist.count == result.counters.augmentations
        assert hist.sum == result.counters.total_augmenting_path_length


class TestNullTelemetry:
    def test_shared_context_is_reused(self):
        null = NULL_TELEMETRY
        ctx = null.run_span("numpy")
        assert null.step("topdown") is ctx
        assert null.job_span("j", "a", None) is ctx

    def test_every_hook_is_noop(self):
        null = NullTelemetry()
        with null.run_span("python"):
            null.begin_phase(1)
            with null.step("topdown"):
                pass
            with null.step("grafting", direction="topdown"):
                pass
            null.finish_run(Counters(), FrontierLog(), 5, 3, [("topdown", 50)])
        null.count_job("done")
        assert not null.enabled

    def test_telemetry_is_enabled(self):
        assert Telemetry().enabled


class TestServiceVocabulary:
    def test_job_span_wraps_the_run(self, tmp_path):
        from repro.service.executor import BatchExecutor, ManualClock
        from repro.service.jobs import JobSpec

        tel = Telemetry()
        job = JobSpec(job_id="rmat-graft", graph={"suite": "rmat", "scale": 0.05})
        BatchExecutor(tmp_path / "run", clock=ManualClock(),
                      telemetry=tel).run_batch([job])
        [job_span] = [s for s in tel.tracer.spans if s.name == "job"]
        [run_span] = [s for s in tel.tracer.spans if s.name == "run"]
        assert run_span.parent_id == job_span.span_id
        assert job_span.attributes["engine"] == "auto"
        assert job_span.attributes["status"] == "done"

    def test_job_counters(self):
        tel = Telemetry()
        tel.count_job("done")
        tel.count_job("timeout")
        assert tel.metrics.get("repro_jobs_total", {"status": "done"}).value == 1
        assert tel.metrics.get("repro_job_timeouts_total").value == 1
