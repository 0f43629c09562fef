"""Observability of the online daemon: request ids, the ``metrics`` RPC,
the HTTP scrape endpoint, and the span-ring flight dump."""

from __future__ import annotations

import glob
import json
import os
import urllib.request

import pytest

from repro.errors import ServiceError
from repro.service.online import (
    SPAN_CAPACITY,
    MatchingDaemon,
    OnlineClient,
    OnlineConfig,
)
from repro.service.protocol import COMMANDS
from repro.telemetry import Telemetry, lint_prometheus


@pytest.fixture()
def obs_daemon(tmp_path):
    """Daemon with every observability surface on: metrics RPC + HTTP
    endpoint (ephemeral port) + flight dumps."""
    d = MatchingDaemon(
        OnlineConfig(
            socket_path=tmp_path / "d.sock",
            cache_dir=tmp_path / "cache",
            metrics_port=0,
            flight_dir=tmp_path / "flight",
        ),
        telemetry=Telemetry(),
    )
    thread = d.start_background()
    yield d
    d.shutdown()
    thread.join(timeout=5)


def seed_session(daemon, name="orders"):
    with OnlineClient(daemon.config.socket_path) as client:
        client.create(name, 30, 30, edges=[(i, i) for i in range(20)])
        client.update(name, inserts=[(20, 21), (21, 20)])
    return name


class TestRequestIds:
    def test_rid_flows_request_to_repair_span(self, obs_daemon):
        seed_session(obs_daemon)
        tracer = obs_daemon.telemetry.tracer
        requests = [s for s in tracer.spans if s.name == "request"]
        repairs = [s for s in tracer.spans if s.name == "repair"]
        assert requests and repairs
        update_req = next(s for s in requests if s.attributes["cmd"] == "update")
        assert repairs[0].attributes["rid"] == update_req.attributes["rid"]
        assert repairs[0].attributes["session"] == "orders"

    def test_rids_are_unique_and_monotonic(self, obs_daemon):
        seed_session(obs_daemon)
        rids = [
            s.attributes["rid"]
            for s in obs_daemon.telemetry.tracer.spans
            if s.name == "request"
        ]
        assert rids == sorted(rids)
        assert len(rids) == len(set(rids))


class TestSpanRetention:
    def test_daemon_tracer_stays_bounded(self, tmp_path):
        # 1000 in-process requests open 1500 request/repair spans; the
        # daemon's default tracer keeps only the newest SPAN_CAPACITY.
        d = MatchingDaemon(OnlineConfig(socket_path=tmp_path / "d.sock"))

        def send(cmd, **payload):
            response = d.handle_line(json.dumps({"cmd": cmd, **payload}))
            assert response["ok"], response
            return response

        send("create", session="g", n_x=8, n_y=8)
        for i in range(500):
            send("update", session="g", inserts=[[i % 8, (3 * i) % 8]])
            send("match", session="g")
        spans = d.telemetry.tracer.spans
        assert 0 < len(spans) <= SPAN_CAPACITY < 1500
        # the newest update's repair span still nests under its request span
        repair = [s for s in spans if s.name == "repair"][-1]
        (parent,) = [s for s in spans if s.span_id == repair.parent_id]
        assert parent.name == "request"
        assert parent.attributes["rid"] == repair.attributes["rid"]
        assert parent.attributes["cmd"] == "update"


class TestMetricsRPC:
    def test_metrics_is_a_protocol_command(self):
        assert "metrics" in COMMANDS

    def test_rpc_returns_lintable_exposition(self, obs_daemon):
        seed_session(obs_daemon)
        with OnlineClient(obs_daemon.config.socket_path) as client:
            result = client.metrics()
        families = set(lint_prometheus(result["prometheus"]))
        assert {
            "repro_online_requests_total",
            "repro_online_repair_seconds",
            "repro_online_repair_sweeps_total",
            "repro_online_session_updates_total",
        } <= families
        assert result["repair_p99_seconds"] >= result["repair_p50_seconds"] >= 0

    def test_stats_reports_both_quantiles(self, obs_daemon):
        seed_session(obs_daemon)
        with OnlineClient(obs_daemon.config.socket_path) as client:
            stats = client.stats()
        assert stats["repair_p50_seconds"] <= stats["repair_p99_seconds"]
        assert stats["repairs_observed"] >= 1

    def test_stats_omits_quantiles_before_first_repair(self, obs_daemon):
        with OnlineClient(obs_daemon.config.socket_path) as client:
            stats = client.stats()
        # NaN is not valid JSON; the daemon must omit, not emit, it
        assert "repair_p99_seconds" not in stats


class TestHTTPEndpoint:
    def scrape(self, daemon, path="/metrics"):
        url = f"http://127.0.0.1:{daemon.metrics_port}{path}"
        with urllib.request.urlopen(url, timeout=5) as resp:
            return resp.status, resp.headers, resp.read().decode("utf-8")

    def test_ephemeral_port_resolved_once_socket_is_up(self, obs_daemon):
        assert obs_daemon.metrics_port not in (None, 0)

    def test_scrape_lints_clean_and_tracks_traffic(self, obs_daemon):
        seed_session(obs_daemon)
        status, headers, body = self.scrape(obs_daemon)
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        families = set(lint_prometheus(body))
        assert "repro_online_requests_total" in families
        assert "repro_online_sessions" in families

    def test_snapshot_bytes_gauge_refreshed_on_scrape(self, obs_daemon):
        name = seed_session(obs_daemon)
        with OnlineClient(obs_daemon.config.socket_path) as client:
            client.snapshot(name)
        _, _, body = self.scrape(obs_daemon)
        line = next(
            ln for ln in body.splitlines()
            if ln.startswith("repro_online_snapshot_store_bytes")
        )
        assert float(line.split()[-1]) > 0

    def test_unknown_path_is_404(self, obs_daemon):
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            self.scrape(obs_daemon, path="/nope")
        assert exc_info.value.code == 404

    def test_no_port_no_server(self, tmp_path):
        d = MatchingDaemon(OnlineConfig(socket_path=tmp_path / "d.sock"))
        thread = d.start_background()
        try:
            assert d.metrics_port is None
        finally:
            d.shutdown()
            thread.join(timeout=5)


class TestRequestFlightRecorder:
    def read(self, path):
        return [json.loads(line) for line in open(path, encoding="utf-8")]

    def test_failed_request_dumps_ring_with_failure_at_tail(self, obs_daemon, tmp_path):
        seed_session(obs_daemon)
        with OnlineClient(obs_daemon.config.socket_path) as client:
            with pytest.raises(ServiceError):
                client.update("no-such-session", inserts=[(0, 0)])
        dumps = glob.glob(str(tmp_path / "flight" / "flight-online-*.jsonl"))
        assert len(dumps) == 1
        records = self.read(dumps[0])
        *spans, tail = records
        assert tail["kind"] == "request_error"
        assert tail["cmd"] == "update"
        assert tail["error_kind"] == "permanent"
        assert tail["error_type"] == "ServiceError"
        assert f"req{tail['rid']}-pid{os.getpid()}-" in os.path.basename(dumps[0])
        # the preceding traffic is in the ring: context for the failure
        assert all(r["kind"] == "span" for r in spans)
        assert [s["attributes"]["cmd"] for s in spans if s["name"] == "request"] == [
            "create", "update", "update",
        ]
        # the failed request closed its span before the dump, with its error
        failed = spans[-1]
        assert failed["attributes"]["rid"] == tail["rid"]
        assert failed["attributes"]["error_kind"] == "permanent"
        assert failed["attributes"]["error"] == tail["error"]

    def test_unparsed_line_dumps_failure_without_a_span(self, obs_daemon, tmp_path):
        response = obs_daemon.handle_line("{broken")
        assert response["error"]["kind"] == "permanent"
        (path,) = glob.glob(str(tmp_path / "flight" / "*.jsonl"))
        (record,) = self.read(path)
        assert record["cmd"] == "?" and record["error_kind"] == "permanent"
        assert obs_daemon.telemetry.tracer.by_name("request") == []

    def test_successful_traffic_writes_nothing(self, obs_daemon, tmp_path):
        seed_session(obs_daemon)
        assert glob.glob(str(tmp_path / "flight" / "*.jsonl")) == []

    def test_repair_events_recorded(self, obs_daemon, tmp_path):
        seed_session(obs_daemon)
        (repair,) = obs_daemon.telemetry.tracer.by_name("repair")
        assert repair.attributes["session"] == "orders"
        assert repair.attributes["inserted"] == 2
        assert repair.attributes["deleted"] == 0
        assert repair.attributes["augmented"] == 2
        assert repair.attributes["bfs_rounds"] >= 1
        assert repair.attributes["repair_seconds"] >= 0

    def test_no_flight_dir_no_recorder(self, tmp_path):
        d = MatchingDaemon(OnlineConfig(socket_path=tmp_path / "d.sock"))
        assert not d.handle_line('{"cmd": "match", "session": "ghost"}')["ok"]
        assert list(tmp_path.iterdir()) == []
