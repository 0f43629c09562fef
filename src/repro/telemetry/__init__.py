"""Unified telemetry: span tracing, metrics, and exporters.

The observability layer of the reproduction (see ``docs/observability.md``):

* :mod:`repro.telemetry.spans` — nested span tracer (monotonic durations,
  wall anchors, per-thread stacks);
* :mod:`repro.telemetry.metrics` — counters / gauges / fixed-bucket
  histograms with Prometheus naming rules;
* :mod:`repro.telemetry.exporters` — Chrome ``chrome://tracing`` JSON,
  Prometheus text exposition (+ lint), a JSONL stream that composes
  with the service :class:`~repro.service.events.EventLog`, and the
  flight dump: the span ring the online daemon writes when a request
  fails, with the failure as its last line;
* :mod:`repro.telemetry.session` — the :class:`Telemetry` bundle the
  driver, batch executor, CLI and online daemon accept, plus
  :data:`NULL_TELEMETRY`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.telemetry.exporters": (
        "chrome_trace",
        "export_jsonl",
        "lint_prometheus",
        "prometheus_text",
        "write_chrome_trace",
        "write_prometheus",
        "write_flight_dump",
        "write_telemetry_jsonl",
    ),
    "repro.telemetry.metrics": (
        "DEFAULT_SECONDS_BUCKETS",
        "FRONTIER_BUCKETS",
        "PATH_LENGTH_BUCKETS",
        "Counter",
        "Gauge",
        "Histogram",
        "MetricsRegistry",
    ),
    "repro.telemetry.session": (
        "ENGINE_STEPS",
        "NULL_TELEMETRY",
        "NullTelemetry",
        "Telemetry",
    ),
    "repro.telemetry.spans": ("Span", "Tracer"),
})

__all__ = [
    "Span",
    "Tracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "ENGINE_STEPS",
    "DEFAULT_SECONDS_BUCKETS",
    "FRONTIER_BUCKETS",
    "PATH_LENGTH_BUCKETS",
    "chrome_trace",
    "write_chrome_trace",
    "prometheus_text",
    "write_prometheus",
    "lint_prometheus",
    "export_jsonl",
    "write_telemetry_jsonl",
    "write_flight_dump",
]
