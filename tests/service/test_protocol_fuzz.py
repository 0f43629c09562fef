"""Protocol fuzzing: no request line can break the daemon.

``hypothesis`` feeds :meth:`MatchingDaemon.handle_line` malformed JSON,
non-objects, unknown commands, non-integer ids and ``create``/``update``
requests with wrongly typed fields. Every reply must be ``ok`` or carry an
``error.kind`` from the failure taxonomy, ``ping`` must still answer
afterwards, and the registry must count every line once. A line over
``MAX_LINE_BYTES`` goes through :meth:`MatchingDaemon.handle_stream`, with
the limit lowered so the test stays small.
"""

from __future__ import annotations

import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import protocol
from repro.service.online import MatchingDaemon, OnlineConfig

KINDS = {"permanent", "deadline"}

small_ints = st.integers(min_value=-3, max_value=12)
# Values of the wrong type (and a few of the right one) for any field.
values = st.one_of(
    st.none(),
    st.booleans(),
    small_ints,
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
    st.lists(small_ints, max_size=3),
    st.lists(st.lists(small_ints, max_size=3), max_size=4),
    st.dictionaries(st.text(max_size=3), small_ints, max_size=2),
)
sessions = st.one_of(st.sampled_from(["g", "h"]), values)

malformed_json = st.text(max_size=40)
non_objects = st.one_of(
    st.none(), st.booleans(), small_ints, st.text(max_size=8),
    st.lists(small_ints, max_size=3),
).map(json.dumps)
unknown_commands = st.one_of(
    st.text(max_size=10).filter(lambda c: c not in protocol.COMMANDS), values
).map(lambda cmd: json.dumps({"cmd": cmd}))
bad_ids = st.one_of(
    st.text(max_size=5), st.floats(), st.lists(small_ints, max_size=2), st.none()
).map(lambda i: json.dumps({"cmd": "ping", "id": i}))
creates = st.fixed_dictionaries(
    {"cmd": st.just("create"), "session": sessions},
    optional={"n_x": values, "n_y": values, "edges": values},
).map(json.dumps)
updates = st.fixed_dictionaries(
    {"cmd": st.just("update"), "session": sessions},
    optional={"inserts": values, "deletes": values, "deadline_seconds": values},
).map(json.dumps)
# Valid sessions for the updates to land on some of the time.
valid_creates = st.builds(
    lambda name, n: json.dumps({"cmd": "create", "session": name, "n_x": n, "n_y": n}),
    st.sampled_from(["g", "h"]),
    st.integers(min_value=1, max_value=12),
)

lines = st.lists(
    st.one_of(
        malformed_json, non_objects, unknown_commands, bad_ids,
        creates, updates, valid_creates,
    ),
    min_size=1,
    max_size=12,
)


def new_daemon() -> MatchingDaemon:
    # handle_line never binds the socket; the path is only configuration.
    return MatchingDaemon(OnlineConfig(socket_path="unused.sock"))


def assert_well_formed(response):
    if response["ok"]:
        assert "result" in response
    else:
        assert response["error"]["kind"] in KINDS, response
        assert isinstance(response["error"]["message"], str)
    json.dumps(response)  # the reply must encode for the wire


@settings(max_examples=150, deadline=None)
@given(lines)
def test_every_line_gets_one_well_formed_reply(fed):
    daemon = new_daemon()
    for line in fed:
        assert_well_formed(daemon.handle_line(line))
    stats = daemon.handle_line('{"id": 1, "cmd": "stats"}')
    assert stats["ok"]
    assert stats["result"]["requests_served"] == len(fed)
    ping = daemon.handle_line('{"id": 2, "cmd": "ping"}')
    assert ping["ok"] and ping["result"]["pong"] is True
    assert daemon.requests_served() == len(fed) + 2


def test_oversized_line_closes_the_connection_with_one_error(monkeypatch):
    monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 64)
    daemon = new_daemon()
    ping = b'{"id": 1, "cmd": "ping"}\n'
    oversized = json.dumps({"id": 2, "cmd": "ping", "pad": "x" * 100}).encode() + b"\n"
    rfile = io.BytesIO(ping + oversized + ping)
    wfile = io.BytesIO()
    daemon.handle_stream(rfile, wfile)
    first, second = [json.loads(r) for r in wfile.getvalue().splitlines()]
    assert first["ok"] and first["id"] == 1
    assert not second["ok"] and second["id"] == 0
    assert second["error"]["kind"] == "permanent"
    assert "exceeds 64 bytes" in second["error"]["message"]
    # the oversized line is counted like any other request
    assert daemon.requests_served() == 2
    # the daemon still serves: a fresh request is answered
    assert daemon.handle_line(ping.decode())["result"]["pong"] is True


def test_oversized_line_writes_one_flight_dump(monkeypatch, tmp_path):
    monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 64)
    daemon = MatchingDaemon(
        OnlineConfig(socket_path="unused.sock", flight_dir=tmp_path / "flight")
    )
    ping = b'{"id": 1, "cmd": "ping"}\n'
    oversized = json.dumps({"id": 2, "cmd": "ping", "pad": "x" * 100}).encode() + b"\n"
    daemon.handle_stream(io.BytesIO(ping + oversized), io.BytesIO())
    (dump,) = (tmp_path / "flight").glob("flight-*.jsonl")
    last = json.loads(dump.read_text().splitlines()[-1])
    assert last["kind"] == "request_error" and last["cmd"] == "?"
    assert last["error_kind"] == "permanent"
