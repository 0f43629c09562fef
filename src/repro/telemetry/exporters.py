"""Exporters: Chrome trace JSON, Prometheus text exposition, JSONL stream.

Three consumers, three formats:

* :func:`chrome_trace` / :func:`write_chrome_trace` — the ``traceEvents``
  JSON that ``chrome://tracing`` and https://ui.perfetto.dev open directly;
  one complete (``"ph": "X"``) event per span, microsecond timestamps
  relative to the earliest span.
* :func:`prometheus_text` — the text exposition format (``# HELP``/
  ``# TYPE`` + samples); :func:`lint_prometheus` applies promtool-style
  checks so CI catches malformed names, missing types, or broken histogram
  invariants without needing promtool itself.
* :func:`export_jsonl` — appends ``telemetry_span``/``telemetry_metric``
  records through the service's :class:`~repro.service.events.EventLog`,
  so engine traces and batch lifecycle events interleave in one stream,
  ordered by file position.
* :func:`write_flight_dump` — the online daemon's post-mortem: the
  tracer's span ring as JSONL, with the failure record as the last line.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.errors import TelemetryError
from repro.telemetry.metrics import (
    LABEL_NAME_RE,
    METRIC_NAME_RE,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.spans import Span, Tracer

# --------------------------------------------------------------------------- #
# Chrome trace (chrome://tracing, Perfetto)
# --------------------------------------------------------------------------- #

_STEP_CATEGORIES = {
    "run": "engine",
    "phase": "engine",
    "setup": "engine",
    "finalize": "engine",
    "topdown": "kernel",
    "bottomup": "kernel",
    "augment": "kernel",
    "grafting": "kernel",
    "statistics": "kernel",
    "job": "service",
    "request": "online",
    "repair": "online",
}


def chrome_trace(
    tracer: Tracer, *, metadata: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Serialise a tracer's spans as a Chrome ``traceEvents`` document.

    Open spans are skipped (a trace is exported after the run finishes).
    Every span renders under pid 0 ("repro-match"). Thread ids are
    compacted to small integers in first-seen order, with ``thread_name``
    metadata so Perfetto labels the rows.
    """
    spans = [s for s in tracer.snapshot() if not s.open]
    origin = min((s.start for s in spans), default=0.0)
    tids: Dict[int, int] = {}
    events: List[Dict[str, Any]] = [
        {"ph": "M", "pid": 0, "tid": 0, "name": "process_name",
         "args": {"name": "repro-match"}},
    ]
    for span in spans:
        tid = tids.setdefault(span.thread, len(tids))
        args = {k: _json_safe(v) for k, v in span.attributes.items()}
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": _STEP_CATEGORIES.get(span.name, "repro"),
                "ts": round((span.start - origin) * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": 0,
                "tid": tid,
                "args": args,
            }
        )
    for ident, tid in tids.items():
        events.append(
            {"ph": "M", "pid": 0, "tid": tid, "name": "thread_name",
             "args": {"name": f"thread-{tid} (os {ident})"}}
        )
    doc: Dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"exporter": "repro.telemetry", "spans": len(spans)},
    }
    if metadata:
        doc["otherData"].update({k: _json_safe(v) for k, v in metadata.items()})
    return doc


def write_chrome_trace(
    tracer: Tracer,
    path: Union[str, Path],
    *,
    metadata: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write the Chrome trace JSON; returns the path written."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(tracer, metadata=metadata), fh, indent=1)
        fh.write("\n")
    return path


def _json_safe(value: Any) -> Any:
    """Coerce one attribute/metric value into strict-JSON territory.

    Numpy scalars unwrap to their Python equivalents (``.item()``), since
    engine code frequently stuffs ``np.int64`` counts into span attributes;
    non-finite floats become their string spellings (``"inf"``/``"nan"``)
    because bare ``Infinity``/``NaN`` tokens are not valid JSON and break
    strict parsers of the exported files. Everything else unknown falls
    back to ``str()`` (e.g. ``Path``).
    """
    if isinstance(value, bool) or value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, float):
        # float() first: numpy float subclasses repr as "np.float64(nan)".
        return float(value) if math.isfinite(value) else repr(float(value))
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return _json_safe(item())
        except (TypeError, ValueError):
            pass
    return str(value)


# --------------------------------------------------------------------------- #
# Prometheus text exposition
# --------------------------------------------------------------------------- #


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_labels(items, extra: Optional[Dict[str, str]] = None) -> str:
    pairs = list(items) + sorted((extra or {}).items())
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape_label(v)}"' for k, v in pairs)
    return "{" + body + "}"


def _escape_label(value: str) -> str:
    return str(value).replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _format_le(bound: float) -> str:
    return _format_value(bound)


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render a registry in the Prometheus text exposition format."""
    lines: List[str] = []
    for name, kind, help, instruments in registry.families():
        if help:
            lines.append(f"# HELP {name} {help}")
        lines.append(f"# TYPE {name} {kind}")
        for inst in instruments:
            if isinstance(inst, (Counter, Gauge)):
                lines.append(f"{name}{_format_labels(inst.labels)} {_format_value(inst.value)}")
            elif isinstance(inst, Histogram):
                cumulative = inst.cumulative_counts()
                for bound, count in zip(inst.buckets, cumulative):
                    labels = _format_labels(inst.labels, {"le": _format_le(bound)})
                    lines.append(f"{name}_bucket{labels} {count}")
                labels = _format_labels(inst.labels, {"le": "+Inf"})
                lines.append(f"{name}_bucket{labels} {cumulative[-1]}")
                lines.append(
                    f"{name}_sum{_format_labels(inst.labels)} {_format_value(inst.sum)}"
                )
                lines.append(
                    f"{name}_count{_format_labels(inst.labels)} {inst.count}"
                )
    return "\n".join(lines) + "\n" if lines else ""


def write_prometheus(registry: MetricsRegistry, path: Union[str, Path]) -> Path:
    """Write (and lint) the exposition text; returns the path written."""
    text = prometheus_text(registry)
    lint_prometheus(text)
    path = Path(path)
    path.write_text(text, encoding="utf-8")
    return path


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^ ]+)\s*$"
)
_LABEL_PAIR_RE = re.compile(r'^\s*([^=\s]+)="((?:[^"\\]|\\.)*)"\s*$')


def lint_prometheus(text: str) -> List[str]:
    """Promtool-style lint of exposition text; raises on problems.

    Checks: metric/label name regexes, a ``# TYPE`` line preceding every
    sample's family, counters named ``*_total``, histogram series carrying
    ``le`` with a ``+Inf`` bucket whose value equals ``_count``, and
    cumulative bucket monotonicity. Returns the list of sample family
    names seen (handy for assertions).
    """
    problems: List[str] = []
    types: Dict[str, str] = {}
    seen: List[str] = []
    histogram_state: Dict[str, Dict[str, float]] = {}

    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in ("counter", "gauge", "histogram"):
                problems.append(f"line {lineno}: malformed TYPE line: {line!r}")
                continue
            name = parts[2]
            if not METRIC_NAME_RE.match(name):
                problems.append(f"line {lineno}: invalid metric name {name!r}")
            if name in types:
                problems.append(f"line {lineno}: duplicate TYPE for {name!r}")
            types[name] = parts[3]
            if parts[3] == "counter" and not name.endswith("_total"):
                problems.append(
                    f"line {lineno}: counter {name!r} should end in '_total'"
                )
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            problems.append(f"line {lineno}: unparseable sample: {line!r}")
            continue
        name = match.group("name")
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            base = name[: -len(suffix)] if name.endswith(suffix) else None
            if base and types.get(base) == "histogram":
                family = base
                break
        if family not in types:
            problems.append(f"line {lineno}: sample {name!r} has no preceding TYPE line")
            continue
        seen.append(family)
        label_text = match.group("labels")
        labels: Dict[str, str] = {}
        if label_text:
            for pair in _split_labels(label_text):
                pair_match = _LABEL_PAIR_RE.match(pair)
                if pair_match is None:
                    problems.append(f"line {lineno}: malformed label pair {pair!r}")
                    continue
                key = pair_match.group(1)
                if not LABEL_NAME_RE.match(key):
                    problems.append(f"line {lineno}: invalid label name {key!r}")
                labels[key] = pair_match.group(2)
        try:
            value = float(match.group("value"))
        except ValueError:
            problems.append(f"line {lineno}: non-numeric value in {line!r}")
            continue
        if types[family] == "histogram" and name.endswith("_bucket"):
            if "le" not in labels:
                problems.append(f"line {lineno}: histogram bucket without 'le' label")
                continue
            series = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
            state = histogram_state.setdefault(f"{family}{series}", {})
            previous = state.get("last", -1.0)
            if value < previous:
                problems.append(
                    f"line {lineno}: histogram {family!r} buckets not cumulative"
                )
            state["last"] = value
            if labels["le"] == "+Inf":
                state["inf"] = value
        if types[family] == "histogram" and name.endswith("_count"):
            series = tuple(sorted(labels.items()))
            state = histogram_state.get(f"{family}{series}")
            if state is not None and state.get("inf") is not None and state["inf"] != value:
                problems.append(
                    f"line {lineno}: histogram {family!r} _count != +Inf bucket"
                )
    if problems:
        raise TelemetryError("prometheus lint: " + "; ".join(problems))
    return seen


def _split_labels(label_text: str) -> List[str]:
    """Split ``a="x",b="y"`` on commas outside quotes."""
    parts: List[str] = []
    current: List[str] = []
    in_quotes = False
    escaped = False
    for ch in label_text:
        if escaped:
            current.append(ch)
            escaped = False
            continue
        if ch == "\\":
            current.append(ch)
            escaped = True
            continue
        if ch == '"':
            in_quotes = not in_quotes
        if ch == "," and not in_quotes:
            parts.append("".join(current))
            current = []
            continue
        current.append(ch)
    if current:
        parts.append("".join(current))
    return parts


# --------------------------------------------------------------------------- #
# JSONL stream (composes with the service EventLog) and the flight dump
# --------------------------------------------------------------------------- #


def span_record(span: Span) -> Dict[str, Any]:
    """One closed span as strict-JSON fields (JSONL stream and flight dump)."""
    return {
        "name": span.name,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "start_wall": round(span.start_wall, 6),
        "duration_seconds": round(span.duration, 9),
        "attributes": {k: _json_safe(v) for k, v in span.attributes.items()},
    }


def export_jsonl(
    log,
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
) -> int:
    """Append spans and metric samples to an open service ``EventLog``.

    One ``telemetry_span`` record per closed span and one
    ``telemetry_metric`` record per instrument; returns the number of
    records written. ``log`` is a :class:`repro.service.events.EventLog`
    (duck-typed on ``emit``), so telemetry lines land in the run
    directory's one log, after the batch lifecycle events already there.
    """
    from repro.service.events import TELEMETRY_METRIC, TELEMETRY_SPAN

    written = 0
    if tracer is not None:
        for span in tracer.snapshot():
            if not span.open:
                log.emit(TELEMETRY_SPAN, **span_record(span))
                written += 1
    if registry is not None:
        for name, kind, _, instruments in registry.families():
            for inst in instruments:
                record: Dict[str, Any] = {
                    "name": name,
                    "kind": kind,
                    "labels": dict(inst.labels),
                }
                if isinstance(inst, (Counter, Gauge)):
                    record["value"] = _json_safe(inst.value)
                elif isinstance(inst, Histogram):
                    record["sum"] = _json_safe(inst.sum)
                    record["count"] = inst.count
                    record["buckets"] = list(inst.buckets)
                    record["bucket_counts"] = list(inst.bucket_counts)
                log.emit(TELEMETRY_METRIC, **record)
                written += 1
    return written


def write_telemetry_jsonl(
    path: Union[str, Path],
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
) -> int:
    """Standalone JSONL export: opens its own EventLog at ``path``."""
    from repro.service.events import EventLog

    with EventLog(path) as log:
        return export_jsonl(log, tracer, registry)


def write_flight_dump(
    path: Union[str, Path], tracer: Tracer, failure: Mapping[str, Any]
) -> Path:
    """Write a post-mortem JSONL file; returns the path written.

    One ``{"kind": "span", ...}`` line per closed span in the tracer's ring,
    oldest first, then ``failure`` as the last line, where ``tail -1`` finds
    it. Every line is strict JSON. The writer needs nothing but ``open`` and
    :mod:`json`, so it works while the caller is handling a failure.
    """
    records = [
        {"kind": "span", **span_record(span)}
        for span in tracer.snapshot()
        if not span.open
    ]
    records.append({k: _json_safe(v) for k, v in failure.items()})
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, separators=(",", ":"), allow_nan=False) + "\n")
    return path
