"""Wire protocol of the online matching daemon.

Line-delimited JSON over a local stream socket: one request object per
line, one response object per line, in order. The framing is deliberately
the same shape as the service's event log — newline-terminated JSON
objects — so a captured session transcript is greppable and replayable
with the same tooling (``docs/service.md`` has the command table).

Request::

    {"id": 7, "cmd": "update", "session": "orders",
     "inserts": [[0, 3], [2, 1]], "deletes": [[4, 4]]}

Response (success / failure)::

    {"id": 7, "ok": true, "result": {"cardinality": 812, ...}}
    {"id": 7, "ok": false,
     "error": {"kind": "deadline", "type": "DeadlineExceeded",
               "message": "deadline of 0.050s exceeded ..."}}

``error.kind`` is ``deadline`` when the request's cooperative deadline
expired and ``permanent`` for every other failure;
:class:`~repro.service.online.OnlineClient` raises on either at once,
without retrying.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import DeadlineExceeded, ServiceError

COMMANDS = (
    "ping", "create", "load", "update", "match", "stats",
    "metrics", "snapshot", "close", "shutdown",
)
"""Every command the daemon understands, in docs/service.md table order."""

SESSION_COMMANDS = frozenset(
    {"create", "load", "update", "match", "snapshot", "close"}
)
"""Commands that require a ``session`` field."""

MAX_LINE_BYTES = 64 * 1024 * 1024
"""Upper bound on one request/response line — a guard against a client
streaming garbage into the daemon's line buffer, not a practical limit
(64 MiB of JSON is ~2M edge updates in one batch)."""

PROTOCOL_VERSION = 1


@dataclass(frozen=True)
class Request:
    """One validated daemon request."""

    id: int
    cmd: str
    session: Optional[str] = None
    payload: Mapping[str, Any] = field(default_factory=dict)

    @classmethod
    def from_line(cls, line: str) -> "Request":
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ServiceError(f"request is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ServiceError("request must be a JSON object")
        cmd = data.get("cmd")
        if cmd not in COMMANDS:
            raise ServiceError(
                f"unknown command {cmd!r}; known: {list(COMMANDS)}"
            )
        req_id = data.get("id", 0)
        if not isinstance(req_id, int):
            raise ServiceError(f"request id must be an integer, got {req_id!r}")
        session = data.get("session")
        if cmd in SESSION_COMMANDS:
            if not isinstance(session, str) or not session or "/" in session:
                raise ServiceError(
                    f"command {cmd!r} needs a non-empty slash-free "
                    f"'session' string, got {session!r}"
                )
        payload = {
            k: v for k, v in data.items() if k not in ("id", "cmd", "session")
        }
        return cls(id=req_id, cmd=cmd, session=session, payload=payload)


def encode(obj: Mapping[str, Any]) -> bytes:
    """One wire line: compact JSON + newline."""
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode("utf-8")


def ok_response(req_id: int, result: Mapping[str, Any]) -> Dict[str, Any]:
    return {"id": req_id, "ok": True, "result": dict(result)}


def error_response(req_id: int, exc: BaseException) -> Dict[str, Any]:
    """Map a handler exception onto ``deadline`` | ``permanent`` for the client."""
    return {
        "id": req_id,
        "ok": False,
        "error": {
            "kind": "deadline" if isinstance(exc, DeadlineExceeded) else "permanent",
            "type": type(exc).__name__,
            "message": str(exc),
        },
    }


def decode_response(line: str) -> Dict[str, Any]:
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ServiceError(f"response is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "ok" not in data:
        raise ServiceError(f"malformed response object: {line[:200]!r}")
    return data


def parse_edge_pairs(payload: Mapping[str, Any], key: str) -> List[Tuple[int, int]]:
    """Read an edge-pair array field (``[[x, y], ...]``; absent = empty)."""
    raw = payload.get(key, [])
    if not isinstance(raw, list):
        raise ServiceError(f"field {key!r} must be a list of [x, y] pairs")
    pairs: List[Tuple[int, int]] = []
    for entry in raw:
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not all(isinstance(v, int) for v in entry)
        ):
            raise ServiceError(
                f"field {key!r} entries must be [x, y] integer pairs, "
                f"got {entry!r}"
            )
        pairs.append((entry[0], entry[1]))
    return pairs


def read_line(fh) -> Optional[str]:
    """Read one framed line from a socket makefile; ``None`` on EOF.

    Raises :class:`~repro.errors.ServiceError` if a single line exceeds
    :data:`MAX_LINE_BYTES` (the peer is not speaking the protocol).
    """
    line = fh.readline(MAX_LINE_BYTES + 1)
    if not line:
        return None
    if len(line) > MAX_LINE_BYTES:
        raise ServiceError(
            f"protocol line exceeds {MAX_LINE_BYTES} bytes; closing connection"
        )
    if isinstance(line, bytes):
        line = line.decode("utf-8")
    return line
