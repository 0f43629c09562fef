"""FlightRecorder: bounded ring, dump format, crash-at-tail contract."""

import json
import math
import os

import numpy as np
import pytest

from repro.telemetry.flight import (
    DEFAULT_CAPACITY,
    FlightRecorder,
    read_flight_dump,
)


def manual_recorder(capacity=4):
    ticks = iter(float(i) for i in range(10_000))
    return FlightRecorder(capacity, wall=lambda: next(ticks))


class TestRing:
    def test_events_kept_oldest_first(self):
        rec = manual_recorder()
        for i in range(3):
            rec.record("level", level=i)
        assert [e["level"] for e in rec.snapshot()] == [0, 1, 2]
        assert len(rec) == 3

    def test_bounded_eviction(self):
        rec = manual_recorder(capacity=2)
        for i in range(5):
            rec.record("level", level=i)
        assert [e["level"] for e in rec.snapshot()] == [3, 4]
        assert len(rec) == 2

    def test_default_capacity(self):
        assert FlightRecorder().capacity == DEFAULT_CAPACITY

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            FlightRecorder(0)

    def test_events_are_json_safe_at_record_time(self):
        rec = manual_recorder()
        rec.record(
            "level",
            frontier=np.int64(42),
            ratio=math.inf,
            pids=[np.int64(1), np.int64(2)],
            nested={"k": np.float64(0.5)},
        )
        event = rec.snapshot()[0]
        # must already round-trip through strict json
        text = json.dumps(event, allow_nan=False)
        back = json.loads(text)
        assert back["frontier"] == 42
        assert back["ratio"] == "inf"
        assert back["pids"] == [1, 2]
        assert back["nested"]["k"] == 0.5


class TestDump:
    def test_header_then_events_tail_is_most_recent(self, tmp_path):
        rec = manual_recorder()
        rec.record("level", level=1)
        rec.record("crash", error="boom")
        path = rec.dump(tmp_path / "f.jsonl", reason="DeadlineExceeded",
                        context={"phase": 3})
        records = read_flight_dump(path)
        header = records[0]
        assert header["kind"] == "flight_dump"
        assert header["reason"] == "DeadlineExceeded"
        assert header["pid"] == os.getpid()
        assert header["events"] == 2
        assert header["context"] == {"phase": 3}
        # the crash event is the LAST line: `tail -1` finds it
        assert records[-1]["kind"] == "crash"
        assert records[-1]["error"] == "boom"

    def test_dump_creates_parent_dirs(self, tmp_path):
        rec = manual_recorder()
        rec.record("x")
        path = rec.dump(tmp_path / "deep" / "nested" / "f.jsonl", reason="r")
        assert path.exists()

    def test_dump_to_dir_names_never_collide(self, tmp_path):
        rec = manual_recorder()
        rec.record("x")
        p1 = rec.dump_to_dir(tmp_path, "online", reason="a")
        p2 = rec.dump_to_dir(tmp_path, "online", reason="b")
        assert p1 != p2
        assert rec.dumps_written == 2
        assert all(p.name.startswith("flight-online-pid") for p in (p1, p2))

    def test_every_line_is_strict_json(self, tmp_path):
        rec = manual_recorder()
        rec.record("level", ratio=math.nan)
        path = rec.dump(tmp_path / "f.jsonl", reason="r")
        for line in path.read_text().splitlines():
            json.loads(line, parse_constant=lambda tok: pytest.fail(tok))

    def test_empty_ring_dumps_header_only(self, tmp_path):
        rec = manual_recorder()
        path = rec.dump(tmp_path / "f.jsonl", reason="r")
        records = read_flight_dump(path)
        assert len(records) == 1
        assert records[0]["events"] == 0
