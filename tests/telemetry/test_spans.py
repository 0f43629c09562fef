import sys
import threading

import pytest

from repro.errors import TelemetryError
from repro.telemetry.spans import Tracer


class FakeClock:
    """Deterministic monotonic clock: each reading advances by `tick`."""

    def __init__(self, start=0.0, tick=1.0):
        self.now = start
        self.tick = tick

    def __call__(self):
        value = self.now
        self.now += self.tick
        return value


def manual_tracer(tick=0.0):
    clock = FakeClock(tick=tick)
    tracer = Tracer(clock=clock, wall=lambda: 1000.0 + clock.now)
    return tracer, clock


class TestSpanLifecycle:
    def test_context_manager_nests(self):
        tracer = Tracer()
        with tracer.span("run") as run:
            with tracer.span("phase") as phase:
                pass
        assert phase.parent_id == run.span_id
        assert not run.open and not phase.open

    def test_duration_raises_while_open(self):
        tracer = Tracer()
        span = tracer.start_span("run")
        with pytest.raises(TelemetryError):
            _ = span.duration
        tracer.end_span(span)
        assert span.duration >= 0.0

    def test_end_closes_open_descendants(self):
        # The engines sequence phase spans imperatively; closing the run
        # span must also close a dangling phase span at the same instant.
        tracer, clock = manual_tracer()
        clock.tick = 1.0
        run = tracer.start_span("run")
        phase = tracer.start_span("phase")
        tracer.end_span(run)
        assert not phase.open
        assert phase.end == run.end

    def test_end_span_not_open_raises(self):
        tracer = Tracer()
        with tracer.span("a") as span:
            pass
        with pytest.raises(TelemetryError):
            tracer.end_span(span)

    def test_set_attributes_after_open(self):
        tracer = Tracer()
        with tracer.span("job", job="j1") as span:
            span.set(status="done")
        assert span.attributes == {"job": "j1", "status": "done"}

    def test_current_tracks_innermost(self):
        tracer = Tracer()
        assert tracer.current() is None
        with tracer.span("outer") as outer:
            assert tracer.current() is outer
            with tracer.span("inner") as inner:
                assert tracer.current() is inner
            assert tracer.current() is outer
        assert tracer.current() is None

    def test_finish_closes_everything(self):
        tracer = Tracer()
        tracer.start_span("a")
        tracer.start_span("b")
        tracer.finish()
        assert all(not s.open for s in tracer.spans)

    def test_injectable_clocks(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock, wall=lambda: 1000.0)
        with tracer.span("timed") as span:
            clock.now = 2.5
        assert span.duration == pytest.approx(2.5)
        assert span.start_wall == pytest.approx(1000.0)

    def test_wall_anchor_independent_of_monotonic(self):
        wall_values = iter([5000.0, 6000.0])
        tracer = Tracer(clock=FakeClock(tick=1.0), wall=lambda: next(wall_values))
        a = tracer.start_span("a")
        tracer.end_span(a)
        b = tracer.start_span("b")
        tracer.end_span(b)
        assert a.start_wall == 5000.0 and b.start_wall == 6000.0


class TestTreeQueries:
    def test_roots_children_by_name(self):
        tracer = Tracer()
        with tracer.span("run") as run:
            with tracer.span("phase"):
                pass
            with tracer.span("phase"):
                pass
        assert tracer.roots() == [run]
        assert len(tracer.children(run)) == 2
        assert len(tracer.by_name("phase")) == 2

    def test_coverage_full(self):
        tracer, clock = manual_tracer()
        run = tracer.start_span("run")          # t=0
        clock.now = 1.0
        child = tracer.start_span("phase")      # t=1
        clock.now = 9.0
        tracer.end_span(child)                  # t=9
        clock.now = 10.0
        tracer.end_span(run)                    # t=10
        assert tracer.coverage(run) == pytest.approx(0.8)  # 8 of 10

    def test_coverage_merges_overlap(self):
        tracer, clock = manual_tracer()
        run = tracer.start_span("run")          # t=0
        clock.now = 1.0
        a = tracer.start_span("a")              # t=1
        clock.now = 5.0
        tracer.end_span(a)
        clock.now = 3.0  # overlapping child interval [3, 6]
        b = tracer.start_span("b")
        clock.now = 6.0
        tracer.end_span(b)
        clock.now = 10.0
        tracer.end_span(run)
        # union of [1,5] and [3,6] is 5 seconds of a 10-second run
        assert tracer.coverage(run) == pytest.approx(0.5)

    def test_coverage_no_children(self):
        tracer, clock = manual_tracer()
        run = tracer.start_span("run")
        clock.now = 4.0
        tracer.end_span(run)
        assert tracer.coverage(run) == 0.0

    def test_coverage_open_root_raises(self):
        tracer = Tracer()
        run = tracer.start_span("run")
        with pytest.raises(TelemetryError):
            tracer.coverage(run)

    def test_coverage_no_roots(self):
        assert Tracer().coverage() == 0.0


class TestCapacity:
    def test_ring_keeps_newest_spans(self):
        tracer = Tracer(capacity=3)
        for i in range(5):
            with tracer.span("s", i=i):
                pass
        assert [s.attributes["i"] for s in tracer.spans] == [2, 3, 4]
        assert [s.span_id for s in tracer.spans] == [2, 3, 4]

    def test_evicted_open_span_still_closes(self):
        tracer = Tracer(capacity=2)
        with tracer.span("outer") as outer:
            for _ in range(3):
                with tracer.span("inner") as inner:
                    assert inner.parent_id == outer.span_id
        assert not outer.open
        assert [s.name for s in tracer.spans] == ["inner", "inner"]

    def test_unbounded_by_default(self):
        tracer = Tracer()
        for _ in range(2000):
            with tracer.span("s"):
                pass
        assert len(tracer.spans) == 2000

    def test_capacity_must_be_positive(self):
        with pytest.raises(TelemetryError):
            Tracer(capacity=0)


class TestSnapshot:
    def test_snapshot_is_a_copy_oldest_first(self):
        tracer = Tracer(capacity=2)
        for i in range(3):
            with tracer.span("s", i=i):
                pass
        snap = tracer.snapshot()
        with tracer.span("s", i=3):
            pass
        assert [s.attributes["i"] for s in snap] == [1, 2]

    def test_readers_are_safe_while_another_thread_traces(self):
        # Iterating the ring unlocked raised "deque mutated during
        # iteration" in a few percent of reads under this load.
        from repro.telemetry.exporters import chrome_trace, export_jsonl

        class NullLog:
            def emit(self, *args, **fields):
                return None

        tracer = Tracer(capacity=1024)
        for _ in range(1024):
            with tracer.span("request"):
                pass
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                with tracer.span("request"):
                    pass

        errors = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for i in range(50):
                try:
                    chrome_trace(tracer)
                    export_jsonl(NullLog(), tracer)
                    tracer.roots()
                    tracer.by_name("request")
                except RuntimeError as exc:
                    errors.append(f"read {i}: {exc}")
        finally:
            stop.set()
            thread.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert errors == []
