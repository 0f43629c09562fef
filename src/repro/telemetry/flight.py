"""Crash flight recorder: a bounded ring of recent telemetry events.

The online daemon (:mod:`repro.service.online`) keeps one
:class:`FlightRecorder` around and passes cheap structured events to
:meth:`~FlightRecorder.record` as it goes (one dict per request). The
ring is bounded (``deque(maxlen=...)``), so the recorder costs
O(capacity) memory forever and nothing is ever written in the happy path.

When something goes wrong — a failed daemon request, a repair past its
deadline — the owner calls :meth:`dump` and the last ``capacity`` events
land in a post-mortem JSONL file whose *first* line is a header (reason +
context) and whose *tail* is the failure context itself, recorded
immediately before dumping. That turns "the request failed" from a log
line into an artifact: which session, which command, how large the batch.

The format is plain JSONL (one object per line), deliberately independent
of the service :class:`~repro.service.events.EventLog` — a flight dump
must succeed *during* a failure, so it depends on nothing but ``open``
and ``json.dumps``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.telemetry.exporters import _json_safe

DEFAULT_CAPACITY = 256
"""Ring size: enough for the last few hundred levels or requests, small
enough that an idle recorder is invisible in memory profiles."""


def _safe(value: Any) -> Any:
    """Recursive :func:`_json_safe`: containers keep their shape."""
    if isinstance(value, (list, tuple)):
        return [_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _safe(v) for k, v in value.items()}
    return _json_safe(value)


class FlightRecorder:
    """Thread-safe bounded ring of recent telemetry events.

    ``wall`` is injectable for deterministic tests (default
    :func:`time.time`; events carry wall timestamps so a dump lines up
    with external logs, not with any monotonic origin).
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        *,
        wall: Callable[[], float] = time.time,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"flight recorder capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._wall = wall
        self._lock = threading.Lock()
        self._events: "deque[Dict[str, Any]]" = deque(maxlen=self.capacity)
        self.dumps_written = 0

    def record(self, kind: str, **fields: Any) -> None:
        """Append one event; evicts the oldest when the ring is full."""
        event = {"wall": round(self._wall(), 6), "kind": str(kind)}
        for key, value in fields.items():
            event[key] = _safe(value)
        with self._lock:
            self._events.append(event)

    def snapshot(self) -> List[Dict[str, Any]]:
        """The current ring contents, oldest first."""
        with self._lock:
            return [dict(e) for e in self._events]

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def dump(
        self,
        path: Union[str, Path],
        *,
        reason: str,
        context: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Write the ring to ``path`` as JSONL; returns the path written.

        Line 1 is a ``flight_dump`` header carrying ``reason`` and the
        caller's ``context``; the remaining lines are the ring, oldest
        first — so the *last* line is the most recent event (callers
        record the crash event right before dumping, putting the crash
        context at the tail where a ``tail -1`` finds it).
        """
        events = self.snapshot()
        header = {
            "kind": "flight_dump",
            "wall": round(self._wall(), 6),
            "reason": str(reason),
            "pid": os.getpid(),
            "events": len(events),
            "capacity": self.capacity,
        }
        if context:
            header["context"] = {k: _safe(v) for k, v in context.items()}
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, separators=(",", ":")) + "\n")
            for event in events:
                fh.write(json.dumps(event, separators=(",", ":")) + "\n")
        self.dumps_written += 1
        return path

    def dump_to_dir(
        self,
        directory: Union[str, Path],
        tag: str,
        *,
        reason: str,
        context: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Dump into ``directory`` under a collision-free generated name."""
        directory = Path(directory)
        name = f"flight-{tag}-pid{os.getpid()}-{self.dumps_written}.jsonl"
        return self.dump(directory / name, reason=reason, context=context)


def read_flight_dump(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Parse a dump back into records (header first); for tests/tooling."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
