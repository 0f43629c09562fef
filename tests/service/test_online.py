"""Online daemon: protocol validation, session LRU, end-to-end socket runs."""

import json
import threading
import time

import pytest

from repro.cache import GraphCache
from repro.errors import DeadlineExceeded, GraphFormatError, ServiceError
from repro.service import online, protocol
from repro.service.online import MatchingDaemon, OnlineClient, OnlineConfig
from repro.service.sessions import SessionManager
from repro.telemetry.session import Telemetry


# --------------------------------------------------------------------------- #
# protocol
# --------------------------------------------------------------------------- #


class TestProtocol:
    def test_request_roundtrip(self):
        line = json.dumps({"id": 3, "cmd": "update", "session": "g",
                           "inserts": [[0, 1]]})
        req = protocol.Request.from_line(line)
        assert req.id == 3 and req.cmd == "update" and req.session == "g"
        assert req.payload == {"inserts": [[0, 1]]}

    def test_invalid_json_rejected(self):
        with pytest.raises(ServiceError, match="not valid JSON"):
            protocol.Request.from_line("{nope")

    def test_non_object_rejected(self):
        with pytest.raises(ServiceError, match="JSON object"):
            protocol.Request.from_line("[1, 2]")

    def test_unknown_command_rejected(self):
        with pytest.raises(ServiceError, match="unknown command"):
            protocol.Request.from_line('{"cmd": "frobnicate"}')

    def test_non_integer_id_rejected(self):
        with pytest.raises(ServiceError, match="id must be an integer"):
            protocol.Request.from_line('{"cmd": "ping", "id": "seven"}')

    @pytest.mark.parametrize("session", [None, "", "a/b", 7])
    def test_session_commands_need_a_session(self, session):
        data = {"cmd": "match", "id": 1}
        if session is not None:
            data["session"] = session
        with pytest.raises(ServiceError, match="session"):
            protocol.Request.from_line(json.dumps(data))

    def test_ping_needs_no_session(self):
        req = protocol.Request.from_line('{"cmd": "ping", "id": 1}')
        assert req.session is None

    def test_parse_edge_pairs(self):
        assert protocol.parse_edge_pairs({}, "edges") == []
        assert protocol.parse_edge_pairs(
            {"edges": [[0, 1], [2, 3]]}, "edges"
        ) == [(0, 1), (2, 3)]
        for bad in ({"edges": "x"}, {"edges": [[0]]}, {"edges": [[0, "y"]]}):
            with pytest.raises(ServiceError):
                protocol.parse_edge_pairs(bad, "edges")

    def test_error_response_carries_taxonomy(self):
        assert protocol.error_response(1, DeadlineExceeded("x"))["error"]["kind"] == "deadline"
        for exc in (ServiceError("x"), GraphFormatError("x"), ValueError("x"),
                    RuntimeError("x")):
            assert protocol.error_response(1, exc)["error"]["kind"] == "permanent"

    def test_encode_decode_roundtrip(self):
        payload = protocol.ok_response(4, {"cardinality": 9})
        line = protocol.encode(payload)
        assert line.endswith(b"\n")
        assert protocol.decode_response(line.decode()) == payload


# --------------------------------------------------------------------------- #
# session manager
# --------------------------------------------------------------------------- #


class TestSessionManager:
    def test_create_and_get(self):
        mgr = SessionManager(max_sessions=4)
        mgr.create("g", 3, 3, [(0, 0), (1, 1)])
        assert mgr.get("g").matcher.cardinality == 2
        assert mgr.names() == ["g"]

    def test_missing_session_error_names_residents(self):
        mgr = SessionManager()
        mgr.create("a", 1, 1)
        with pytest.raises(ServiceError, match="no such session 'b'.*'a'"):
            mgr.get("b")

    def test_lru_eviction_at_cap(self):
        tel = Telemetry()
        mgr = SessionManager(max_sessions=2, telemetry=tel)
        mgr.create("a", 1, 1)
        mgr.create("b", 1, 1)
        mgr.get("a")  # bump a: b becomes the LRU victim
        mgr.create("c", 1, 1)
        assert mgr.names() == ["a", "c"]
        assert mgr.evictions == 1
        counter = tel.metrics.get("repro_online_session_evictions_total")
        assert counter.value == 1
        assert tel.metrics.get("repro_online_sessions").value == 2

    def test_snapshot_requires_cache(self):
        mgr = SessionManager()
        mgr.create("g", 2, 2, [(0, 0)])
        with pytest.raises(ServiceError, match="cache"):
            mgr.snapshot("g")
        with pytest.raises(ServiceError, match="cache"):
            mgr.load_snapshot("g2", "0" * 64)

    def test_snapshot_load_roundtrip(self, tmp_path):
        cache = GraphCache(tmp_path / "cache")
        mgr = SessionManager(cache=cache)
        mgr.create("g", 4, 4, [(0, 0), (1, 1), (2, 3)])
        key = mgr.snapshot("g")
        restored = mgr.load_snapshot("copy", key)
        assert restored.matcher.edge_list() == mgr.get("g").matcher.edge_list()
        assert restored.matcher.cardinality == 3

    def test_snapshot_key_is_content_addressed(self, tmp_path):
        # Two sessions holding the same edge set — built through different
        # update histories — must snapshot to the SAME cache key (the
        # graph() determinism fix is what makes this hold).
        cache = GraphCache(tmp_path / "cache")
        mgr = SessionManager(cache=cache)
        mgr.create("a", 1, 16)
        for y in (8, 0, 9, 1):
            mgr.get("a").matcher.apply_batch([("insert", 0, y)])
        mgr.create("b", 1, 16)
        mgr.get("b").matcher.apply_batch(
            [("insert", 0, y) for y in (0, 1, 8, 9)]
            + [("delete", 0, 8), ("insert", 0, 8)]
        )
        assert mgr.snapshot("a") == mgr.snapshot("b")

    def test_load_unknown_key_errors(self, tmp_path):
        mgr = SessionManager(cache=GraphCache(tmp_path / "cache"))
        with pytest.raises(ServiceError, match="no cache entry"):
            mgr.load_snapshot("g", "ab" * 32)


# --------------------------------------------------------------------------- #
# daemon request handling (no socket: handle_line is pure)
# --------------------------------------------------------------------------- #


def make_daemon(tmp_path, **overrides):
    config = OnlineConfig(socket_path=tmp_path / "d.sock", **overrides)
    return MatchingDaemon(config, telemetry=Telemetry())


def send(daemon, **data):
    response = daemon.handle_line(json.dumps(data))
    return response


class TestHandleLine:
    def test_create_update_match(self, tmp_path):
        d = make_daemon(tmp_path)
        r = send(d, id=1, cmd="create", session="g", n_x=3, n_y=3,
                 edges=[[0, 0]])
        assert r["ok"] and r["result"]["cardinality"] == 1
        r = send(d, id=2, cmd="update", session="g",
                 inserts=[[1, 1], [2, 2]], deletes=[[0, 0]])
        assert r["ok"]
        assert r["result"]["inserted"] == 2 and r["result"]["deleted"] == 1
        assert r["result"]["cardinality"] == 2
        r = send(d, id=3, cmd="match", session="g", verify=True, pairs=True)
        assert r["result"]["verified"] is True
        assert sorted(map(tuple, r["result"]["pairs"])) == [(1, 1), (2, 2)]

    def test_unknown_session_is_permanent(self, tmp_path):
        d = make_daemon(tmp_path)
        r = send(d, id=1, cmd="match", session="ghost")
        assert not r["ok"] and r["error"]["kind"] == "permanent"
        assert r["error"]["type"] == "ServiceError"

    def test_bad_line_reports_id_zero(self, tmp_path):
        d = make_daemon(tmp_path)
        r = d.handle_line("{broken")
        assert not r["ok"] and r["id"] == 0

    def test_deadline_expiry_maps_to_deadline_kind(self, tmp_path):
        # Clock jumps 10s per reading: any positive deadline expires before
        # the first repair sweep runs.
        ticks = [0.0]

        def clock():
            ticks[0] += 10.0
            return ticks[0]

        config = OnlineConfig(socket_path=tmp_path / "d.sock",
                              default_deadline_seconds=1.0)
        d = MatchingDaemon(config, telemetry=Telemetry(), clock=clock)
        send(d, id=1, cmd="create", session="g", n_x=2, n_y=2)
        r = send(d, id=2, cmd="update", session="g", inserts=[[0, 0]])
        assert not r["ok"]
        assert r["error"]["kind"] == "deadline"
        assert r["error"]["type"] == "DeadlineExceeded"
        # The session survives: a repair without the deadline finishes.
        r = send(d, id=3, cmd="update", session="g", deadline_seconds=1e9)
        assert r["ok"] and r["result"]["cardinality"] == 1

    def test_request_metrics_counted(self, tmp_path):
        d = make_daemon(tmp_path)
        send(d, id=1, cmd="ping")
        send(d, id=2, cmd="match", session="ghost")
        ok = d.telemetry.metrics.get(
            "repro_online_requests_total", {"cmd": "ping", "status": "ok"}
        )
        bad = d.telemetry.metrics.get(
            "repro_online_requests_total",
            {"cmd": "match", "status": "permanent"},
        )
        assert ok.value == 1 and bad.value == 1

    def test_stats_reports_slo_metrics(self, tmp_path):
        d = make_daemon(tmp_path)
        send(d, id=1, cmd="create", session="g", n_x=4, n_y=4)
        send(d, id=2, cmd="update", session="g",
             inserts=[[0, 0], [1, 1], [2, 2]])
        r = send(d, id=3, cmd="stats")
        result = r["result"]
        assert result["sessions"] == 1
        assert result["updates_total"] == 3
        assert result["repairs_observed"] == 1
        assert result["repair_p99_seconds"] >= 0.0
        assert "updates_per_second" in result
        r = send(d, id=4, cmd="stats", session="g")
        assert r["result"]["batches_applied"] == 1
        assert r["result"]["updates_applied"] == 3


# --------------------------------------------------------------------------- #
# end-to-end over the socket
# --------------------------------------------------------------------------- #


@pytest.fixture()
def daemon(tmp_path):
    d = MatchingDaemon(
        OnlineConfig(socket_path=tmp_path / "d.sock", max_sessions=4,
                     cache_dir=tmp_path / "cache"),
        telemetry=Telemetry(),
    )
    thread = d.start_background()
    yield d
    d.shutdown()
    thread.join(timeout=5)


class TestEndToEnd:
    def test_start_background_returns_once_listening(self, tmp_path, monkeypatch):
        # Widen the window between bind() and listen(), in which a connect
        # is refused.
        activate = online._Server.server_activate

        def slow_activate(server):
            time.sleep(0.2)
            activate(server)

        monkeypatch.setattr(online._Server, "server_activate", slow_activate)
        d = MatchingDaemon(OnlineConfig(socket_path=tmp_path / "d.sock"))
        thread = d.start_background()
        try:
            with OnlineClient(d.config.socket_path) as client:
                assert client.ping()["pong"] is True
        finally:
            d.shutdown()
            thread.join(timeout=5)
        assert not thread.is_alive()

    def test_socket_path_appears_only_after_listen(self, tmp_path, monkeypatch):
        # A client that waits for the path to appear must not be refused,
        # so the path must not exist yet when listen() runs.
        socket_path = tmp_path / "d.sock"
        seen = []
        activate = online._Server.server_activate

        def recording_activate(server):
            seen.append(socket_path.exists())
            activate(server)

        monkeypatch.setattr(online._Server, "server_activate", recording_activate)
        d = MatchingDaemon(OnlineConfig(socket_path=socket_path))
        thread = d.start_background()
        try:
            assert seen == [False]
            with OnlineClient(socket_path) as client:
                assert client.ping()["pong"] is True
        finally:
            d.shutdown()
            thread.join(timeout=5)
        assert not thread.is_alive()
        assert list(tmp_path.iterdir()) == []

    def test_stale_socket_file_is_replaced(self, tmp_path):
        socket_path = tmp_path / "d.sock"
        socket_path.write_text("left behind by a killed daemon")
        d = MatchingDaemon(OnlineConfig(socket_path=socket_path))
        thread = d.start_background()
        try:
            with OnlineClient(socket_path) as client:
                assert client.ping()["pong"] is True
        finally:
            d.shutdown()
            thread.join(timeout=5)
        assert not thread.is_alive()

    def test_failed_rename_leaves_no_staging_file(self, tmp_path):
        # A non-empty directory at the socket path cannot be replaced.
        socket_path = tmp_path / "d.sock"
        (socket_path / "keep").mkdir(parents=True)
        d = MatchingDaemon(OnlineConfig(socket_path=socket_path))
        with pytest.raises(OSError):
            d.serve_forever()
        assert [p.name for p in tmp_path.iterdir()] == ["d.sock"]

    def test_staging_name_fits_the_af_unix_limit(self):
        assert len(online._staging_path("run/d.sock")) == len("run/.") + 8
        deep = "/" + "d" * 100
        staging = online._staging_path(deep + "/s")
        assert len(staging) == 108 and staging.startswith(deep + "/.")

    def test_full_session_lifecycle(self, daemon):
        with OnlineClient(daemon.config.socket_path) as client:
            assert client.ping()["pong"] is True
            client.create("g", 6, 6, edges=[(0, 0), (1, 1)])
            r = client.update("g", inserts=[(2, 2), (3, 3)], deletes=[(0, 0)])
            assert r["cardinality"] == 3
            assert client.match("g", verify=True)["verified"] is True
            key = client.snapshot("g")["key"]
            restored = client.load("g2", key)
            assert restored["cardinality"] == 3
            stats = client.stats()
            assert stats["sessions"] == 2
            assert client.close_session("g2")["closed"] is True
            assert client.stats()["sessions"] == 1

    def test_errors_propagate_with_kind(self, daemon):
        with OnlineClient(daemon.config.socket_path) as client:
            with pytest.raises(ServiceError, match="no such session"):
                client.match("ghost")
            # The connection survives an error response.
            assert client.ping()["pong"] is True

    def test_concurrent_clients(self, daemon):
        errors = []

        def worker(i):
            try:
                with OnlineClient(daemon.config.socket_path) as client:
                    name = f"w{i}"
                    client.create(name, 10, 10)
                    for _ in range(5):
                        client.update(name, inserts=[(i % 10, i % 10)])
                    assert client.match(name)["cardinality"] == 1
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert errors == []

    def test_concurrent_snapshots_of_one_graph_share_a_key(self, daemon):
        # Two sessions hold the same graph; their snapshots race to store
        # the same cache entry from two handler threads.
        edges = [(i, (3 * i) % 40) for i in range(40)] + [(i, (i + 1) % 40) for i in range(40)]
        with OnlineClient(daemon.config.socket_path) as client:
            for name in ("a", "b"):
                client.create(name, 40, 40, edges=edges)
        start = threading.Barrier(2)
        keys, errors = {}, []

        def worker(name):
            try:
                with OnlineClient(daemon.config.socket_path) as client:
                    start.wait(timeout=5)
                    keys[name] = client.snapshot(name)["key"]
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(name,)) for name in ("a", "b")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert keys["a"] == keys["b"]
        with OnlineClient(daemon.config.socket_path) as client:
            loaded = client.load("c", keys["a"])
            assert loaded["cardinality"] == client.match("a")["cardinality"]

    def test_updates_on_one_session_are_serialized(self, daemon):
        # Two connections update one session: the repairs must not overlap.
        with OnlineClient(daemon.config.socket_path) as client:
            client.create("shared", 4, 4)
        matcher = daemon.sessions.get("shared").matcher
        apply_batch = matcher.apply_batch
        guard = threading.Lock()
        callers = {"now": 0, "peak": 0}

        def slow_apply_batch(updates, **kwargs):
            with guard:
                callers["now"] += 1
                callers["peak"] = max(callers["peak"], callers["now"])
            try:
                time.sleep(0.05)
                return apply_batch(updates, **kwargs)
            finally:
                with guard:
                    callers["now"] -= 1

        matcher.apply_batch = slow_apply_batch
        start = threading.Barrier(2)
        errors = []

        def worker(i):
            try:
                with OnlineClient(daemon.config.socket_path) as client:
                    start.wait(timeout=5)
                    client.update("shared", inserts=[(i, i)])
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert errors == []
        assert callers["peak"] == 1
        with OnlineClient(daemon.config.socket_path) as client:
            assert client.match("shared", verify=True)["cardinality"] == 2

    def test_handler_failure_is_one_reply_and_no_retry(self, daemon):
        calls = []
        original = daemon._cmd_ping

        def fails_once(request, rid):
            calls.append(rid)
            if len(calls) == 1:
                raise RuntimeError("handler bug")
            return original(request, rid)

        daemon._cmd_ping = fails_once
        served = daemon.requests_served
        try:
            with OnlineClient(daemon.config.socket_path) as client:
                with pytest.raises(ServiceError, match="RuntimeError: handler bug"):
                    client.ping()
                assert len(calls) == 1  # one round trip, no retry
                assert daemon.requests_served == served + 1
                # The same connection serves the next request: the handler
                # stayed alive.
                assert client.ping()["pong"] is True
        finally:
            daemon._cmd_ping = original
        assert len(calls) == 2

    def test_shutdown_command_stops_server(self, tmp_path):
        d = MatchingDaemon(OnlineConfig(socket_path=tmp_path / "d.sock"))
        thread = d.start_background()
        with OnlineClient(d.config.socket_path) as client:
            assert client.shutdown_server()["stopping"] is True
        thread.join(timeout=5)
        assert not thread.is_alive()
