"""Event log: file order, resume continuity, torn-line tolerance."""

import json

import pytest

from repro.errors import ServiceError
from repro.service.events import (
    EVENT_NAMES,
    JOB_DONE,
    JOB_STARTED,
    EventLog,
    read_events,
    read_events_with_stats,
    summarize_events,
)


class FakeWall:
    def __init__(self):
        self.t = 100.0

    def __call__(self):
        self.t += 1.0
        return self.t


class TestEventLog:
    def test_sequential_records(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path, clock=FakeWall()) as log:
            log.emit(JOB_STARTED, "j1", attempt=1)
            log.emit(JOB_DONE, "j1", cardinality=5)
        events = read_events(path)
        assert [e["ts"] for e in events] == [101.0, 102.0]
        assert all("seq" not in e for e in events)
        assert events[0]["event"] == JOB_STARTED
        assert events[0]["job"] == "j1"
        assert events[1]["cardinality"] == 5

    def test_seq_continues_across_reopen(self, tmp_path):
        # A resumed batch appends to the same log; the combined history
        # reads as one stream in file order, with no numbering to continue.
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            first = log.emit(JOB_STARTED, "j1", attempt=1)
        with EventLog(path) as log:
            second = log.emit(JOB_DONE, "j1")
        assert read_events(path) == [first, second]

    def test_unknown_event_rejected(self, tmp_path):
        with EventLog(tmp_path / "e.jsonl") as log:
            with pytest.raises(ServiceError, match="unknown event"):
                log.emit("job_vanished")

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_events(tmp_path / "nope.jsonl") == []

    def test_torn_tail_tolerated(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            log.emit(JOB_STARTED, "j1", attempt=1)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"ts": 2.0, "event": "job_do')  # crash mid-write
        events = read_events(path)
        assert len(events) == 1
        # And a reopened log starts its record on a fresh line instead of
        # gluing it onto the torn fragment.
        with EventLog(path) as log:
            rec = log.emit(JOB_DONE, "j1")
        assert read_events(path) == [events[0], rec]

    def test_torn_interior_line_skipped_when_crash_shaped(self, tmp_path):
        # Crash-then-resume: the torn line sits mid-file because a resumed
        # writer appended complete records (event and ts) below it. That is
        # crash damage, not corruption — the reader must skip (and count)
        # it, or a crashed-then-resumed run directory is unreadable.
        path = tmp_path / "events.jsonl"
        lines = [json.dumps({"ts": 1.0, "event": JOB_STARTED}),
                 '{"ts": 2.0, "event": "job_do',  # torn mid-write
                 json.dumps({"ts": 3.0, "event": JOB_DONE})]
        path.write_text("\n".join(lines) + "\n")
        events, torn = read_events_with_stats(path)
        assert [e["event"] for e in events] == [JOB_STARTED, JOB_DONE]
        assert torn == 1
        assert read_events(path) == events

    @pytest.mark.parametrize("after", [{"event": JOB_DONE}, {"ts": 3.0}, [1, 2]],
                             ids=["no-ts", "no-event", "not-an-object"])
    def test_torn_line_followed_by_incomplete_record_raises(self, tmp_path, after):
        # A malformed line followed by anything but a complete record (an
        # object with event and ts) cannot be crash-then-resume damage
        # (resumed writers only append complete records): that is genuine
        # corruption and must still raise.
        path = tmp_path / "events.jsonl"
        lines = [json.dumps({"ts": 1.0, "event": JOB_STARTED}), "garbage",
                 json.dumps(after)]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ServiceError, match="corrupt"):
            read_events(path)

    def test_crash_then_resume_roundtrip(self, tmp_path):
        # End-to-end: write, crash mid-line, resume-append, read back.
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            log.emit(JOB_STARTED, "j1", attempt=1)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"ts": 2.0, "event": "job_don')  # crash mid-write
        with EventLog(path) as log:  # resume appends below the damage
            log.emit(JOB_DONE, "j1")
        events, torn = read_events_with_stats(path)
        assert torn == 1
        assert [e["event"] for e in events] == [JOB_STARTED, JOB_DONE]

    @pytest.mark.parametrize("name", ["ts"])
    def test_reserved_field_rejected(self, tmp_path, name):
        # A **fields entry named ts would silently clobber the record's own
        # key (record.update(fields) runs last), forging timestamps in the
        # durable log. ("event" as a keyword already collides with the
        # positional parameter at the Python call level, but it is in
        # RESERVED_FIELDS too for dict-driven callers.)
        with EventLog(tmp_path / "e.jsonl") as log:
            with pytest.raises(ServiceError, match="reserved"):
                log.emit(JOB_DONE, "j1", **{name: "spoofed"})
        assert read_events(tmp_path / "e.jsonl") == []

    def test_reserved_rejection_does_not_burn_seq(self, tmp_path):
        path = tmp_path / "e.jsonl"
        # A rejected record leaves no line behind: the next record is the
        # log's first.
        with EventLog(path) as log:
            with pytest.raises(ServiceError):
                log.emit(JOB_DONE, "j1", ts=99)
            rec = log.emit(JOB_DONE, "j1")
        assert read_events(path) == [rec]

    def test_concurrent_writers_never_splice_lines(self, tmp_path):
        # Several logs open on one file (batch runs sharing a run
        # directory): every record is one whole line, whatever its size.
        import sys
        import threading

        path = tmp_path / "events.jsonl"
        payload = "x" * 20000  # larger than any stdio buffer
        jobs = "abcd"

        def writer(job):
            with EventLog(path) as log:
                for i in range(50):
                    log.emit(JOB_DONE, job, i=i, payload=payload)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer, args=(job,)) for job in jobs]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        events, torn = read_events_with_stats(path)
        assert torn == 0
        for job in jobs:
            assert [e["i"] for e in events if e["job"] == job] == list(range(50))


class TestSummaries:
    def test_histogram(self):
        events = [{"event": JOB_STARTED}, {"event": JOB_STARTED},
                  {"event": JOB_DONE}]
        assert summarize_events(events) == {JOB_STARTED: 2, JOB_DONE: 1}

    def test_event_names_cover_constants(self):
        assert JOB_STARTED in EVENT_NAMES and JOB_DONE in EVENT_NAMES
