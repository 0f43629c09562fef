"""The flight dump: a tracer's span ring as post-mortem JSONL.

:func:`~repro.telemetry.exporters.write_flight_dump` writes the ring's
closed spans oldest first and the failure record last; the online daemon
calls it for every failed request when ``flight_dir`` is set.
"""

import json
import math
import os

import numpy as np
import pytest

from repro.errors import TelemetryError
from repro.service.online import SPAN_CAPACITY, MatchingDaemon, OnlineConfig
from repro.telemetry.exporters import write_flight_dump
from repro.telemetry.spans import Tracer

FAILURE = {"kind": "request_error", "rid": 9, "cmd": "update",
           "error_kind": "permanent", "error_type": "ServiceError", "error": "boom"}


def manual_tracer(capacity=4):
    ticks = iter(float(i) for i in range(10_000))
    return Tracer(clock=lambda: next(ticks), wall=lambda: 1.0e9, capacity=capacity)


def read_dump(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def dump(tmp_path, tracer, name="f.jsonl"):
    return read_dump(write_flight_dump(tmp_path / name, tracer, FAILURE))


class TestRing:
    def test_events_kept_oldest_first(self, tmp_path):
        tracer = manual_tracer()
        for i in range(3):
            with tracer.span("request", rid=i):
                pass
        spans = dump(tmp_path, tracer)[:-1]
        assert [s["attributes"]["rid"] for s in spans] == [0, 1, 2]
        assert all(s["kind"] == "span" for s in spans)

    def test_bounded_eviction(self, tmp_path):
        tracer = manual_tracer(capacity=2)
        for i in range(5):
            with tracer.span("request", rid=i):
                pass
        spans = dump(tmp_path, tracer)[:-1]
        assert [s["attributes"]["rid"] for s in spans] == [3, 4]

    def test_default_capacity(self, tmp_path):
        daemon = MatchingDaemon(OnlineConfig(socket_path=tmp_path / "d.sock"))
        assert daemon.telemetry.tracer.spans.maxlen == SPAN_CAPACITY

    def test_invalid_capacity_rejected(self):
        with pytest.raises(TelemetryError):
            Tracer(capacity=0)


class TestDump:
    def test_failure_is_the_last_line(self, tmp_path):
        tracer = manual_tracer()
        with tracer.span("request", rid=1, cmd="update"):
            with tracer.span("repair", rid=1, inserted=2):
                pass
        records = dump(tmp_path, tracer)
        assert [r.get("name") for r in records[:-1]] == ["request", "repair"]
        repair = records[1]
        assert repair["parent_id"] == records[0]["span_id"]
        assert repair["duration_seconds"] == 1.0
        # the failure is the LAST line: `tail -1` finds it
        assert records[-1] == FAILURE

    def test_open_spans_are_left_out(self, tmp_path):
        tracer = manual_tracer()
        with tracer.span("request", rid=1):
            with tracer.span("repair", rid=1):
                pass
            assert [r.get("name") for r in dump(tmp_path, tracer)] == ["repair", None]

    def test_dump_creates_parent_dirs(self, tmp_path):
        path = write_flight_dump(
            tmp_path / "deep" / "nested" / "f.jsonl", manual_tracer(), FAILURE
        )
        assert path.exists()

    def test_dump_to_dir_names_never_collide(self, tmp_path):
        daemon = MatchingDaemon(
            OnlineConfig(socket_path=tmp_path / "d.sock", flight_dir=tmp_path / "flight")
        )
        for _ in range(2):
            assert not daemon.handle_line('{"cmd": "match", "session": "ghost"}')["ok"]
        names = sorted(p.name for p in (tmp_path / "flight").iterdir())
        pid = os.getpid()
        assert names == [
            f"flight-online-req1-pid{pid}-0.jsonl",
            f"flight-online-req2-pid{pid}-1.jsonl",
        ]

    def test_every_line_is_strict_json(self, tmp_path):
        tracer = manual_tracer()
        with tracer.span("repair", frontier=np.int64(42), ratio=math.inf,
                         rate=np.float64(math.nan)):
            pass
        path = write_flight_dump(tmp_path / "f.jsonl", tracer,
                                 {**FAILURE, "seconds": math.nan})
        records = [
            json.loads(line, parse_constant=lambda tok: pytest.fail(tok))
            for line in path.read_text().splitlines()
        ]
        assert records[0]["attributes"] == {"frontier": 42, "ratio": "inf", "rate": "nan"}
        assert records[-1]["seconds"] == "nan"

    def test_empty_ring_dumps_failure_only(self, tmp_path):
        assert dump(tmp_path, manual_tracer()) == [FAILURE]
