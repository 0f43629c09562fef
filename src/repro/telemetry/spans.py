"""Span-based tracing: nested, monotonic-clock spans with wall anchors.

A :class:`Span` is one named interval of work with attributes; spans nest
(each records its parent), so a run decomposes into a tree — ``run`` →
``phase`` → ``topdown``/``bottomup``/``augment``/``grafting``/
``statistics`` for the matching engines, or ``job`` → ``run`` for the
service. Durations come from the monotonic
clock (:func:`time.perf_counter`), immune to wall-clock jumps; every span
also carries a wall-clock anchor so exported traces line up with event
logs and other systems.

The tracer keeps one open-span stack per OS thread, so concurrent
instrumented code attributes spans to the thread that opened them. Both
clocks are injectable for deterministic tests. A long-lived process (the
online daemon) gives the tracer a ``capacity``: it then keeps only the
newest spans in a ring, so retention stays bounded however many requests
it serves, and the daemon dumps that ring when a request fails. Other
threads may append to the ring at any time, so readers go through
:meth:`Tracer.snapshot`, which copies it under the tracer's lock.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional

from repro.errors import TelemetryError


@dataclass
class Span:
    """One named, timed interval in the trace tree.

    ``start``/``end`` are monotonic-clock readings (seconds); ``start_wall``
    is the wall-clock anchor of ``start``. ``end is None`` while the span is
    open. ``attributes`` is free-form structured context (engine name, phase
    number, job id, ...).
    """

    name: str
    span_id: int
    parent_id: Optional[int]
    start: float
    start_wall: float
    thread: int
    end: Optional[float] = None
    attributes: Dict[str, Any] = field(default_factory=dict)

    @property
    def open(self) -> bool:
        return self.end is None

    @property
    def duration(self) -> float:
        """Elapsed seconds (monotonic); raises while the span is open."""
        if self.end is None:
            raise TelemetryError(f"span {self.name!r} (id {self.span_id}) is still open")
        return self.end - self.start

    def set(self, **attributes: Any) -> "Span":
        """Attach or overwrite attributes after the span was opened."""
        self.attributes.update(attributes)
        return self


class Tracer:
    """Collects a tree of spans with per-thread open-span stacks.

    >>> tracer = Tracer()
    >>> with tracer.span("run", engine="numpy"):
    ...     with tracer.span("phase", phase=1):
    ...         pass
    >>> [s.name for s in tracer.spans]
    ['run', 'phase']
    """

    def __init__(
        self,
        *,
        clock: Callable[[], float] = time.perf_counter,
        wall: Callable[[], float] = time.time,
        capacity: Optional[int] = None,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise TelemetryError(f"tracer capacity must be >= 1, got {capacity}")
        self._clock = clock
        self._wall = wall
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self.spans: Deque[Span] = deque(maxlen=capacity)
        """Recorded spans, oldest first; with a ``capacity`` only the newest
        that many (evicted spans still close normally). Appended under the
        lock: read it through :meth:`snapshot` while other threads trace."""

    # ------------------------------------------------------------------ #
    # span lifecycle
    # ------------------------------------------------------------------ #

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start_span(self, name: str, **attributes: Any) -> Span:
        """Open a span as a child of this thread's innermost open span."""
        stack = self._stack()
        parent = stack[-1].span_id if stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            span = Span(
                name=name,
                span_id=span_id,
                parent_id=parent,
                start=self._clock(),
                start_wall=self._wall(),
                thread=threading.get_ident(),
                attributes=dict(attributes),
            )
            self.spans.append(span)
        stack.append(span)
        return span

    def end_span(self, span: Span) -> Span:
        """Close ``span`` (and any still-open descendants above it).

        Closing an outer span while inner ones are open is legal — the
        inner spans are closed at the same instant, which keeps the tree
        well-nested even for imperative (non-context-manager) callers like
        the engines' phase sequencing.
        """
        stack = self._stack()
        if span not in stack:
            raise TelemetryError(
                f"span {span.name!r} (id {span.span_id}) is not open on this thread"
            )
        now = self._clock()
        while stack:
            top = stack.pop()
            top.end = now
            if top is span:
                return span
        raise TelemetryError("unreachable: span vanished from its own stack")

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span]:
        """Context-manager form of :meth:`start_span`/:meth:`end_span`."""
        span = self.start_span(name, **attributes)
        try:
            yield span
        finally:
            if span.open:
                self.end_span(span)

    def current(self) -> Optional[Span]:
        """This thread's innermost open span, or None."""
        stack = self._stack()
        return stack[-1] if stack else None

    def finish(self) -> None:
        """Close every span still open on this thread (outermost last)."""
        stack = self._stack()
        while stack:
            self.end_span(stack[-1])

    # ------------------------------------------------------------------ #
    # tree queries
    # ------------------------------------------------------------------ #

    def snapshot(self) -> List[Span]:
        """The recorded spans, oldest first, copied under the lock.

        Iterating :attr:`spans` directly races with :meth:`start_span` on
        other threads (a deque raises if it is mutated mid-iteration).
        """
        with self._lock:
            return list(self.spans)

    def roots(self) -> List[Span]:
        return [s for s in self.snapshot() if s.parent_id is None]

    def children(self, span: Span) -> List[Span]:
        return [s for s in self.snapshot() if s.parent_id == span.span_id]

    def by_name(self, name: str) -> List[Span]:
        return [s for s in self.snapshot() if s.name == name]

    def coverage(self, root: Optional[Span] = None) -> float:
        """Fraction of a root span's duration covered by its direct children.

        The acceptance measure for engine traces: with a ``run`` root whose
        children are ``setup`` plus one span per phase, coverage close to
        1.0 means the span tree accounts for (almost) all measured wall
        time. Children are merged as intervals, so overlap is not
        double-counted. A root without children (or with zero duration)
        scores 0.0 (or 1.0 for the degenerate zero-duration root).
        """
        if root is None:
            roots = self.roots()
            if not roots:
                return 0.0
            root = roots[0]
        if root.end is None:
            raise TelemetryError(f"span {root.name!r} is still open")
        total = root.duration
        if total <= 0.0:
            return 1.0
        intervals = sorted(
            (child.start, child.end if child.end is not None else root.end)
            for child in self.children(root)
        )
        covered = 0.0
        cursor = root.start
        for lo, hi in intervals:
            lo = max(lo, cursor)
            hi = min(hi, root.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return covered / total
