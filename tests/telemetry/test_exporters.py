import json

import pytest

from repro.errors import TelemetryError
from repro.telemetry.exporters import (
    chrome_trace,
    lint_prometheus,
    prometheus_text,
    write_chrome_trace,
    write_prometheus,
    write_telemetry_jsonl,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import Tracer


def small_trace():
    tracer = Tracer()
    with tracer.span("run", engine="numpy"):
        with tracer.span("phase", phase=1):
            with tracer.span("topdown"):
                pass
    return tracer


def small_registry():
    reg = MetricsRegistry()
    reg.counter("repro_edges_traversed_total", help="Edges traversed").inc(42)
    reg.gauge("repro_frontier_size", help="Live frontier").set(7)
    hist = reg.histogram("repro_step_seconds", help="Step latency", buckets=(0.1, 1.0))
    hist.observe(0.05)
    hist.observe(0.5)
    hist.observe(5.0)
    return reg


class TestChromeTrace:
    def test_one_complete_event_per_span(self):
        doc = chrome_trace(small_trace())
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert [e["name"] for e in complete] == ["run", "phase", "topdown"]
        assert all(e["dur"] >= 0 for e in complete)

    def test_timestamps_relative_to_origin(self):
        doc = chrome_trace(small_trace())
        run = next(e for e in doc["traceEvents"] if e.get("name") == "run")
        assert run["ts"] == 0.0

    def test_parent_ids_preserved_in_args(self):
        doc = chrome_trace(small_trace())
        events = {e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"}
        assert events["phase"]["args"]["parent_id"] == events["run"]["args"]["span_id"]

    def test_open_spans_skipped(self):
        tracer = Tracer()
        with tracer.span("closed"):
            pass
        tracer.start_span("dangling")
        doc = chrome_trace(tracer)
        names = [e["name"] for e in doc["traceEvents"] if e["ph"] == "X"]
        assert names == ["closed"]

    def test_categories_and_metadata(self):
        doc = chrome_trace(small_trace(), metadata={"graph": "rmat", "scale": 0.1})
        events = {e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"}
        assert events["run"]["cat"] == "engine"
        assert events["topdown"]["cat"] == "kernel"
        assert doc["otherData"]["graph"] == "rmat"

    def test_write_round_trips_as_json(self, tmp_path):
        out = write_chrome_trace(small_trace(), tmp_path / "run.trace.json")
        doc = json.loads(out.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["spans"] == 3


class TestPrometheusText:
    def test_renders_all_families(self):
        text = prometheus_text(small_registry())
        assert "# TYPE repro_edges_traversed_total counter" in text
        assert "repro_edges_traversed_total 42" in text
        assert "# TYPE repro_frontier_size gauge" in text
        assert 'repro_step_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_step_seconds_sum" in text
        assert "repro_step_seconds_count 3" in text

    def test_histogram_buckets_cumulative(self):
        text = prometheus_text(small_registry())
        assert 'repro_step_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_step_seconds_bucket{le="1"} 2' in text

    def test_labels_rendered_sorted(self):
        reg = MetricsRegistry()
        reg.counter("x_total", labels={"engine": "numpy", "algo": "graft"}).inc()
        text = prometheus_text(reg)
        assert 'x_total{algo="graft",engine="numpy"} 1' in text

    def test_empty_registry_empty_text(self):
        assert prometheus_text(MetricsRegistry()) == ""

    def test_lint_passes_on_exporter_output(self):
        seen = lint_prometheus(prometheus_text(small_registry()))
        assert "repro_edges_traversed_total" in seen
        assert "repro_step_seconds" in seen

    def test_write_prometheus_lints(self, tmp_path):
        out = write_prometheus(small_registry(), tmp_path / "metrics.prom")
        assert out.read_text().endswith("\n")


class TestPrometheusLint:
    def test_counter_without_total_suffix(self):
        text = "# TYPE bad_counter counter\nbad_counter 1\n"
        with pytest.raises(TelemetryError, match="_total"):
            lint_prometheus(text)

    def test_sample_without_type_line(self):
        with pytest.raises(TelemetryError, match="no preceding TYPE"):
            lint_prometheus("orphan_metric 3\n")

    def test_non_cumulative_histogram_buckets(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 5\n'
            'h_bucket{le="2"} 3\n'
            'h_bucket{le="+Inf"} 5\n'
            "h_sum 1\nh_count 5\n"
        )
        with pytest.raises(TelemetryError, match="not cumulative"):
            lint_prometheus(text)

    def test_count_must_match_inf_bucket(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 2\n'
            'h_bucket{le="+Inf"} 2\n'
            "h_sum 1\nh_count 99\n"
        )
        with pytest.raises(TelemetryError, match="_count"):
            lint_prometheus(text)

    def test_non_numeric_value(self):
        with pytest.raises(TelemetryError, match="non-numeric"):
            lint_prometheus("# TYPE g gauge\ng NaN-ish\n")

    def test_malformed_type_line(self):
        with pytest.raises(TelemetryError, match="malformed TYPE"):
            lint_prometheus("# TYPE wat summary\nwat 1\n")


class TestJsonlExport:
    def test_spans_and_metrics_share_one_stream(self, tmp_path):
        path = tmp_path / "events.jsonl"
        written = write_telemetry_jsonl(path, small_trace(), small_registry())
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == written == 3 + 3
        assert all("seq" not in r and "ts" in r for r in records)
        span_records = [r for r in records if r["event"] == "telemetry_span"]
        assert {r["name"] for r in span_records} == {"run", "phase", "topdown"}
        metric_records = [r for r in records if r["event"] == "telemetry_metric"]
        hist = next(r for r in metric_records if r["kind"] == "histogram")
        assert hist["count"] == 3
        assert hist["bucket_counts"] == [1, 1, 1]

    def test_appends_after_lifecycle_events(self, tmp_path):
        from repro.service.events import EventLog

        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            log.emit("batch_started", jobs=1)
        written = write_telemetry_jsonl(path, small_trace())
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert written == 3
        # the re-opened log appends after the lifecycle record
        assert [r["event"] for r in records] == ["batch_started"] + ["telemetry_span"] * 3


class TestJsonSafe:
    """The value coercion behind every exporter (`_json_safe`)."""

    def test_numpy_scalars_unwrap(self):
        import numpy as np

        from repro.telemetry.exporters import _json_safe

        assert _json_safe(np.int64(7)) == 7
        assert _json_safe(np.float64(2.5)) == 2.5
        assert isinstance(_json_safe(np.int32(3)), int)

    def test_nonfinite_floats_become_strings(self):
        import math

        from repro.telemetry.exporters import _json_safe

        assert _json_safe(math.inf) == "inf"
        assert _json_safe(-math.inf) == "-inf"
        assert _json_safe(math.nan) == "nan"

    def test_numpy_nonfinite_also_stringified(self):
        import numpy as np

        from repro.telemetry.exporters import _json_safe

        out = _json_safe(np.float64("nan"))
        assert out == "nan"

    def test_path_falls_back_to_str(self):
        from pathlib import Path

        from repro.telemetry.exporters import _json_safe

        out = _json_safe(Path("/tmp/x"))
        assert isinstance(out, str) and out.endswith("x")

    def test_plain_types_pass_through(self):
        from repro.telemetry.exporters import _json_safe

        for value in (True, None, "s", 3, 2.5):
            assert _json_safe(value) is value or _json_safe(value) == value

    def test_jsonl_export_survives_hostile_attributes(self, tmp_path):
        import math

        import numpy as np

        tracer = Tracer()
        with tracer.span("run", count=np.int64(5), ratio=math.inf,
                         where=__import__("pathlib").Path("/tmp")):
            pass
        reg = MetricsRegistry()
        reg.gauge("repro_weird").set(1e308 * 10)  # inf
        path = tmp_path / "events.jsonl"
        written = write_telemetry_jsonl(path, tracer, reg)
        # strict parser: every line must be valid JSON with no NaN/Inf tokens
        records = [
            json.loads(line, parse_constant=lambda tok: pytest.fail(tok))
            for line in path.read_text().splitlines()
        ]
        assert written == len(records) == 2
        span = next(r for r in records if r["event"] == "telemetry_span")
        assert span["attributes"]["count"] == 5
        assert span["attributes"]["ratio"] == "inf"
        metric = next(r for r in records if r["event"] == "telemetry_metric")
        assert metric["value"] == "inf"


class TestDaemonMetricsLint:
    """The online daemon's metric families pass the prometheus linter."""

    def test_online_vocabulary_lints_clean(self):
        from repro.telemetry.session import Telemetry

        tel = Telemetry()
        tel.count_request("update", "ok")
        tel.count_updates(12)
        tel.count_session_updates("orders", 12)
        tel.count_repair_sweeps(3)
        tel.observe_repair(0.004)
        tel.set_snapshot_bytes(4096)
        tel.set_sessions(2)
        tel.count_eviction()
        text = prometheus_text(tel.metrics)
        families = set(lint_prometheus(text))
        assert {
            "repro_online_requests_total",
            "repro_online_updates_total",
            "repro_online_session_updates_total",
            "repro_online_repair_sweeps_total",
            "repro_online_repair_seconds",
            "repro_online_snapshot_store_bytes",
            "repro_online_sessions",
            "repro_online_session_evictions_total",
        } <= families
