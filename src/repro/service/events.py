"""Structured JSON-lines event log of a batch run.

One line per event, append-only, flushed per event so a crash loses at most
the event being written. Schema (``docs/service.md`` has the full table):

.. code-block:: json

    {"seq": 7, "ts": 1722873600.1, "event": "job_timeout",
     "job": "rmat-ms-bfs-graft", "error": "deadline of 0.200s exceeded ...",
     "engine": "numpy", "deadline_seconds": 0.2}

``seq`` is monotonically increasing across resumes of the same run
directory (the log is re-opened in append mode), so the full history of an
interrupted-then-resumed batch reads as one ordered stream.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, List, Union

from repro.errors import ServiceError

BATCH_STARTED = "batch_started"
BATCH_DONE = "batch_done"
JOB_QUEUED = "job_queued"
JOB_STARTED = "job_started"
JOB_CHECKPOINTED = "job_checkpointed"
JOB_DONE = "job_done"
JOB_RESUMED = "job_resumed"
JOB_TIMEOUT = "job_timeout"
JOB_FAILED = "job_failed"
TELEMETRY_SPAN = "telemetry_span"
TELEMETRY_METRIC = "telemetry_metric"

EVENT_NAMES = frozenset({
    BATCH_STARTED, BATCH_DONE, JOB_QUEUED, JOB_STARTED, JOB_CHECKPOINTED,
    JOB_DONE, JOB_RESUMED, JOB_TIMEOUT, JOB_FAILED, TELEMETRY_SPAN,
    TELEMETRY_METRIC,
})

RESERVED_FIELDS = frozenset({"seq", "ts", "event"})
"""Record keys the log itself owns; :meth:`EventLog.emit` rejects them as
extra fields so a caller can never silently clobber the sequence number,
timestamp, or event name of a record."""


class EventLog:
    """Append-only JSONL writer for service events.

    ``clock`` stamps wall time (injectable for deterministic tests). The
    writer is also usable as a context manager.
    """

    def __init__(
        self, path: Union[str, Path], *, clock: Callable[[], float] = time.time
    ) -> None:
        self.path = Path(path)
        self._clock = clock
        self._seq = _last_seq(self.path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")
        # A crash tears the last line mid-write, leaving no trailing
        # newline; without this the resumed writer's first record would be
        # appended onto the torn fragment and be destroyed with it.
        if self._fh.tell() > 0:
            with open(self.path, "rb") as check:
                check.seek(-1, 2)
                if check.read(1) != b"\n":
                    self._fh.write("\n")
                    self._fh.flush()

    def emit(self, event: str, job: str | None = None, **fields: Any) -> Dict[str, Any]:
        """Write one event line; returns the record as written."""
        if event not in EVENT_NAMES:
            raise ServiceError(f"unknown event {event!r}; known: {sorted(EVENT_NAMES)}")
        reserved = RESERVED_FIELDS.intersection(fields)
        if reserved:
            raise ServiceError(
                f"field name(s) {sorted(reserved)} are reserved by the event "
                f"log record itself; rename the field(s)"
            )
        self._seq += 1
        record: Dict[str, Any] = {"seq": self._seq, "ts": round(self._clock(), 6),
                                  "event": event}
        if job is not None:
            record["job"] = job
        record.update(fields)
        self._fh.write(json.dumps(record, sort_keys=False) + "\n")
        self._fh.flush()
        return record

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _last_seq(path: Path) -> int:
    if not path.exists():
        return 0
    last = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                try:
                    last = int(json.loads(line).get("seq", last))
                except (json.JSONDecodeError, TypeError, ValueError):
                    continue  # torn tail line from a crash; seq restarts above it
    return last


def read_events(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Read an event log back, tolerating crash-torn lines.

    A mid-write crash tears at most the line being written. Before a
    resume that torn line is the *last* line; after a crash-then-resume it
    sits mid-file with well-formed, ``seq``-carrying records appended
    below it (``_last_seq`` already skips it when computing the resume
    sequence, so the writer and the reader must agree that it is damage,
    not data). Torn lines in either position are skipped; a malformed line
    followed only by records *without* a ``seq`` is not crash-shaped and
    still raises :class:`~repro.errors.ServiceError`.
    """
    return read_events_with_stats(path)[0]


def read_events_with_stats(
    path: Union[str, Path]
) -> tuple[List[Dict[str, Any]], int]:
    """Like :func:`read_events`, also returning the torn-line skip count."""
    events: List[Dict[str, Any]] = []
    path = Path(path)
    if not path.exists():
        return events, 0
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    torn: List[int] = []  # 1-based line numbers of unparseable lines
    for i, line in enumerate(lines):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            record = json.loads(stripped)
        except json.JSONDecodeError:
            # Crash damage iff every later record carries a seq (a resumed
            # writer only ever appends full records) — vacuously true for
            # tail damage. The check happens as later lines are parsed.
            torn.append(i + 1)
            continue
        if torn and not (isinstance(record, dict) and "seq" in record):
            raise ServiceError(
                f"{path}:{torn[0]}: corrupt event line (line {i + 1} after "
                f"it carries no seq, so this is not crash-then-resume damage)"
            )
        events.append(record)
    return events, len(torn)


def summarize_events(events: List[Dict[str, Any]]) -> Dict[str, int]:
    """Event-name histogram of a run (the CLI prints it under the table)."""
    return dict(Counter(e.get("event", "?") for e in events))
