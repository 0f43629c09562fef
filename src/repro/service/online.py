"""The online matching daemon: streaming updates, incremental repair.

The batch service (:mod:`repro.service.executor`) runs offline job queues;
this module is the production story for streaming traffic — a resident
daemon that holds graphs in memory as :class:`~repro.service.sessions.
Session` objects, absorbs edge insert/delete batches over a line-delimited
JSON protocol (:mod:`repro.service.protocol`) on a local Unix socket, and
repairs optimality with :meth:`~repro.matching.incremental.
IncrementalMatcher.apply_batch` — one warm-started MS-BFS-Graft run per
request instead of one BFS per edge.

Failures are reported, never retried:

* every ``update``/``match`` runs under a cooperative
  :class:`~repro.core.options.Deadline` (per-request override or server
  default), checked at the repair engine's phase boundaries; expiry maps to
  ``error.kind == "deadline"``;
* every other handler failure is ``error.kind == "permanent"``; the
  connection stays open for the next request;
* SLO metrics flow through the shared telemetry layer
  (``repro_online_*`` counters, the repair-latency histogram whose
  p50/p99 the ``stats`` and ``metrics`` commands report, and the
  session-eviction counter).

Observability (``docs/observability.md``): the daemon always holds a live
:class:`~repro.telemetry.session.Telemetry`, and its metrics registry and
span ring are the only record of what it served. ``stats``, the
``shutdown`` reply and ``serve``'s exit line read their request and
eviction counts from the registry. Every request gets a monotonically
increasing request id ``rid`` on its ``request`` span and the nested
``repair`` span; the ``repair`` span carries the repair's counts and a
failed ``request`` span the error. The tracer keeps only the newest
:data:`SPAN_CAPACITY` spans, so a long-lived daemon's spans do not pile
up. A ``metrics`` RPC returns the Prometheus text exposition over the
wire, and ``metrics_port`` additionally serves it over plain HTTP
``GET /metrics`` for scrapers that do not speak the line protocol. When
``flight_dir`` is set, a failed request dumps the span ring as
post-mortem JSONL whose last line is the failure.

``repro-match serve`` is the CLI front end; ``repro-match client`` drives
a scripted session against it (the CI ``online-smoke`` job does exactly
that).
"""

from __future__ import annotations

import itertools
import os
import secrets
import socket
import socketserver
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterable, Mapping, Optional, Union

from repro.core.options import Deadline
from repro.errors import DeadlineExceeded, ServiceError, TelemetryError
from repro.matching.verify import verify_maximum
from repro.service import protocol
from repro.service.sessions import SessionManager
from repro.telemetry.exporters import prometheus_text, write_flight_dump
from repro.telemetry.session import Telemetry
from repro.telemetry.spans import Tracer

if TYPE_CHECKING:
    from repro.service.metrics_http import MetricsServer

SPAN_CAPACITY = 1024
"""Spans the daemon's default tracer retains (the newest): the flight
dump's depth, and a bound on a long-lived daemon's span memory."""


@dataclass
class OnlineConfig:
    """Daemon configuration (the ``repro-match serve`` flags)."""

    socket_path: Union[str, Path]
    max_sessions: int = 16
    default_deadline_seconds: Optional[float] = None
    cache_dir: Optional[Union[str, Path]] = None
    max_pairs: int = 1000
    """Cap on matched pairs returned by ``match`` with ``pairs: true``."""
    metrics_port: Optional[int] = None
    """TCP port for the HTTP ``GET /metrics`` endpoint (Prometheus text).

    ``None`` disables the endpoint; ``0`` binds an ephemeral port (tests) —
    the bound port is published as :attr:`MatchingDaemon.metrics_port`
    once the daemon is serving."""
    flight_dir: Optional[Union[str, Path]] = None
    """Directory for span-ring dumps on failed requests; ``None`` writes
    none."""


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:  # pragma: no cover - exercised via daemon tests
        self.server.daemon_ref.handle_stream(self.rfile, self.wfile)


class _Server(socketserver.ThreadingMixIn, socketserver.UnixStreamServer):
    daemon_threads = True
    allow_reuse_address = True


_SUN_PATH_BYTES = 108
"""Longest AF_UNIX path Linux accepts (``sizeof(sockaddr_un.sun_path)``)."""


def _staging_path(path: str) -> str:
    """A fresh short name beside ``path`` for the daemon to bind and listen on.

    Eight random hex digits, fewer when the directory leaves less room
    under the AF_UNIX path limit.
    """
    head = os.path.dirname(path)
    room = _SUN_PATH_BYTES - len(os.fsencode(os.path.join(head, ".")))
    return os.path.join(head, "." + secrets.token_hex(4)[: max(room, 1)])


class MatchingDaemon:
    """Long-lived online matching server over a local Unix stream socket.

    ``telemetry`` defaults to a fresh :class:`Telemetry` whose tracer keeps
    :data:`SPAN_CAPACITY` spans.
    """

    def __init__(
        self,
        config: OnlineConfig,
        *,
        telemetry=None,
        clock=time.monotonic,
        wall=time.time,
    ) -> None:
        self.config = config
        self.telemetry = (
            telemetry
            if telemetry is not None
            else Telemetry(tracer=Tracer(capacity=SPAN_CAPACITY))
        )
        self._clock = clock
        self._wall = wall
        self._started = clock()
        cache = None
        if config.cache_dir is not None:
            from repro.cache import GraphCache

            cache = GraphCache(config.cache_dir, telemetry=self.telemetry)
        self.sessions = SessionManager(
            max_sessions=config.max_sessions,
            cache=cache,
            telemetry=self.telemetry,
        )
        self._server: Optional[_Server] = None
        self._shutdown = threading.Event()
        self._rid = itertools.count(1)
        self._dumps = itertools.count()
        self._metrics_server: Optional[MetricsServer] = None
        self.metrics_port: Optional[int] = None
        """The bound metrics port once serving (resolves ``port=0``)."""

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #

    def serve_forever(self) -> None:
        """Bind the socket and serve until a ``shutdown`` request arrives."""
        path = str(self.config.socket_path)
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        # The metrics endpoint binds before the Unix socket appears, so a
        # caller that has seen the socket can rely on ``metrics_port``.
        if self.config.metrics_port is not None:
            from repro.service.metrics_http import MetricsHandler, MetricsServer

            self._metrics_server = MetricsServer(
                ("127.0.0.1", int(self.config.metrics_port)), MetricsHandler
            )
            self._metrics_server.daemon_ref = self
            self.metrics_port = self._metrics_server.server_address[1]
            threading.Thread(
                target=self._metrics_server.serve_forever,
                kwargs={"poll_interval": 0.05},
                daemon=True,
            ).start()
        # Bind and listen under a staging name, then rename it onto ``path``:
        # the path appears only once connects are accepted, and the rename
        # replaces a stale socket file that a killed daemon left behind.
        staging = _staging_path(path)
        server: Optional[_Server] = None
        try:
            server = _Server(staging, _Handler)
            server.daemon_ref = self
            os.replace(staging, path)
        except OSError:
            if server is not None:
                server.server_close()
            Path(staging).unlink(missing_ok=True)
            raise
        self._server = server
        try:
            self._server.serve_forever(poll_interval=0.05)
        finally:
            self._server.server_close()
            if self._metrics_server is not None:
                self._metrics_server.shutdown()
                self._metrics_server.server_close()
                self._metrics_server = None
                self.metrics_port = None
            try:
                os.unlink(path)
            except OSError:
                pass

    def start_background(self) -> threading.Thread:
        """Serve from a daemon thread (tests and embedded use)."""
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        deadline = self._clock() + 5.0
        path = str(self.config.socket_path)
        while self._clock() < deadline:
            # serve_forever stores the server once its path accepts connects.
            if self._server is not None:
                return thread
            time.sleep(0.005)
        raise ServiceError(f"daemon failed to bind {path} within 5s")

    def shutdown(self) -> None:
        self._shutdown.set()
        if self._server is not None:
            # shutdown() must come from another thread than serve_forever's
            # handler threads are fine (ThreadingMixIn).
            threading.Thread(target=self._server.shutdown, daemon=True).start()

    # ------------------------------------------------------------------ #
    # request plumbing
    # ------------------------------------------------------------------ #

    def handle_stream(self, rfile, wfile) -> None:
        """Serve one client connection: a sequence of framed requests."""
        while not self._shutdown.is_set():
            try:
                line = protocol.read_line(rfile)
            except ServiceError as exc:
                # An oversized line is a failed request like any other:
                # counted, and dumped under ``flight_dir``.
                response = self._finish(
                    next(self._rid), "?", protocol.error_response(0, exc)
                )
                wfile.write(protocol.encode(response))
                wfile.flush()
                return
            if line is None:
                return
            if not line.strip():
                continue
            response = self.handle_line(line)
            try:
                wfile.write(protocol.encode(response))
                wfile.flush()
            finally:
                if response.get("result", {}).get("stopping"):
                    self.shutdown()  # only now: the process may exit once serving stops

    def handle_line(self, line: str) -> Dict[str, Any]:
        """Decode, dispatch, and classify one request (pure; testable).

        Every request is stamped with a server-side request id ``rid``
        that flows into the ``request``/``repair`` spans and a flight
        dump, tying a trace lane, a metrics increment, and a post-mortem
        back to one wire request. A failed dispatch puts its error on the
        ``request`` span; a line that does not parse opens no span.
        """
        rid = next(self._rid)
        cmd = "?"
        try:
            request = protocol.Request.from_line(line)
        except Exception as exc:  # noqa: BLE001 - mapped onto the taxonomy
            response = protocol.error_response(0, exc)
        else:
            cmd = request.cmd
            with self.telemetry.request_span(cmd, rid, session=request.session) as span:
                try:
                    response = protocol.ok_response(
                        request.id, self._dispatch(request, rid)
                    )
                except Exception as exc:  # noqa: BLE001 - mapped onto the taxonomy
                    response = protocol.error_response(request.id, exc)
                    error = response["error"]
                    span.set(error_kind=error["kind"], error_type=error["type"],
                             error=error["message"])
        return self._finish(rid, cmd, response)

    def _finish(self, rid: int, cmd: str, response: Dict[str, Any]) -> Dict[str, Any]:
        """Count request ``rid``'s reply and, if it failed under
        ``flight_dir``, dump the span ring; returns ``response``."""
        error = response.get("error")
        self.telemetry.count_request(cmd, error["kind"] if error else "ok")
        if error and self.config.flight_dir is not None:
            write_flight_dump(
                Path(self.config.flight_dir)
                / f"flight-online-req{rid}-pid{os.getpid()}-{next(self._dumps)}.jsonl",
                self.telemetry.tracer,
                {"kind": "request_error", "rid": rid, "cmd": cmd,
                 "error_kind": error["kind"], "error_type": error["type"],
                 "error": error["message"]},
            )
        return response

    def _deadline(self, payload: Mapping[str, Any]) -> Optional[Deadline]:
        seconds = payload.get(
            "deadline_seconds", self.config.default_deadline_seconds
        )
        if seconds is None:
            return None
        return Deadline(float(seconds), clock=self._clock)

    # ------------------------------------------------------------------ #
    # command handlers
    # ------------------------------------------------------------------ #

    def _dispatch(self, request: protocol.Request, rid: int) -> Dict[str, Any]:
        handler = getattr(self, f"_cmd_{request.cmd}")
        return handler(request, rid)

    def _cmd_ping(self, request: protocol.Request, rid: int) -> Dict[str, Any]:
        return {
            "pong": True,
            "protocol": protocol.PROTOCOL_VERSION,
            "uptime_seconds": round(self._clock() - self._started, 6),
        }

    def _cmd_create(self, request: protocol.Request, rid: int) -> Dict[str, Any]:
        payload = request.payload
        try:
            n_x = int(payload["n_x"])
            n_y = int(payload["n_y"])
        except (KeyError, TypeError, ValueError):
            raise ServiceError("create needs integer 'n_x' and 'n_y'") from None
        edges = protocol.parse_edge_pairs(payload, "edges")
        session = self.sessions.create(
            request.session, n_x, n_y, edges, wall=self._wall()
        )
        return session.describe()

    def _cmd_load(self, request: protocol.Request, rid: int) -> Dict[str, Any]:
        key = request.payload.get("key")
        if not isinstance(key, str) or not key:
            raise ServiceError("load needs a string 'key' (from snapshot)")
        session = self.sessions.load_snapshot(
            request.session, key, wall=self._wall()
        )
        return session.describe()

    def _cmd_update(self, request: protocol.Request, rid: int) -> Dict[str, Any]:
        session = self.sessions.get(request.session)
        payload = request.payload
        updates = [
            ("insert", x, y)
            for x, y in protocol.parse_edge_pairs(payload, "inserts")
        ] + [
            ("delete", x, y)
            for x, y in protocol.parse_edge_pairs(payload, "deletes")
        ]
        deadline = self._deadline(payload)
        with session.lock, self.telemetry.repair_span(session.name, rid) as span:
            started = self._clock()
            try:
                stats = session.matcher.apply_batch(updates, deadline=deadline)
            finally:
                elapsed = self._clock() - started
                self.telemetry.observe_repair(elapsed)
            session.record_batch(stats, elapsed)
            result = {"repair_seconds": round(elapsed, 6), **stats.to_dict()}
            span.set(**result)
        self.telemetry.count_updates(stats.inserted + stats.deleted)
        self.telemetry.count_session_updates(
            session.name, stats.inserted + stats.deleted
        )
        self.telemetry.count_repair_sweeps(stats.bfs_rounds)
        return result

    def _cmd_match(self, request: protocol.Request, rid: int) -> Dict[str, Any]:
        session = self.sessions.get(request.session)
        matcher = session.matcher
        with session.lock:
            result: Dict[str, Any] = {
                "session": session.name,
                "cardinality": matcher.cardinality,
            }
            if request.payload.get("verify"):
                verify_maximum(matcher.graph(), matcher.matching())
                result["verified"] = True
            if request.payload.get("pairs"):
                pairs = matcher.matching().pairs()
                result["pairs"] = [
                    [int(x), int(y)] for x, y in pairs[: self.config.max_pairs]
                ]
                result["pairs_truncated"] = len(pairs) > self.config.max_pairs
        return result

    def _cmd_stats(self, request: protocol.Request, rid: int) -> Dict[str, Any]:
        if request.session:
            return self.sessions.get(request.session).describe()
        uptime = self._clock() - self._started
        metrics = self.telemetry.metrics
        updates = metrics.total("repro_online_updates_total")
        result: Dict[str, Any] = {
            "sessions": len(self.sessions),
            "session_names": self.sessions.names(),
            "max_sessions": self.sessions.max_sessions,
            "evictions": int(metrics.total("repro_online_session_evictions_total")),
            "requests_served": self.requests_served(),
            "uptime_seconds": round(uptime, 6),
        }
        observed = self._repair_quantiles(result)
        if observed:
            result["repairs_observed"] = observed
        result["updates_total"] = int(updates)
        result["updates_per_second"] = round(
            updates / uptime if uptime > 0 else 0.0, 3
        )
        return result

    def requests_served(self) -> int:
        """Requests answered so far: the sum over
        ``repro_online_requests_total``, whose ``cmd`` x ``status`` label
        sets stay under the registry's label cap."""
        return int(self.telemetry.metrics.total("repro_online_requests_total"))

    def prometheus_exposition(self) -> str:
        """The daemon's metrics as Prometheus text (RPC, HTTP endpoint and
        ``serve --metrics-out``).

        The only place the derived gauges (resident sessions,
        snapshot-store bytes) are set: right before rendering, so a scrape
        never reports a stale resource footprint.
        """
        self.telemetry.set_sessions(len(self.sessions))
        if self.sessions.cache is not None:
            self.telemetry.set_snapshot_bytes(self.sessions.cache.total_bytes)
        return prometheus_text(self.telemetry.metrics)

    def _cmd_metrics(self, request: protocol.Request, rid: int) -> Dict[str, Any]:
        result: Dict[str, Any] = {"prometheus": self.prometheus_exposition()}
        self._repair_quantiles(result)
        return result

    def _repair_quantiles(self, result: Dict[str, Any]) -> int:
        """Add the repair-time p50/p99 to ``result``; returns how many
        repairs the histogram holds (0 adds nothing)."""
        try:
            hist = self.telemetry.metrics.get("repro_online_repair_seconds")
        except TelemetryError:  # not registered: no repair observed yet
            return 0
        if hist.count:
            # Guarded on count: an empty histogram's quantile is NaN,
            # which is not valid JSON on the wire.
            result["repair_p50_seconds"] = round(hist.quantile(0.50), 6)
            result["repair_p99_seconds"] = round(hist.quantile(0.99), 6)
        return hist.count

    def _cmd_snapshot(self, request: protocol.Request, rid: int) -> Dict[str, Any]:
        return {"session": request.session, "key": self.sessions.snapshot(request.session)}

    def _cmd_close(self, request: protocol.Request, rid: int) -> Dict[str, Any]:
        return {
            "session": request.session,
            "closed": self.sessions.close(request.session),
        }

    def _cmd_shutdown(self, request: protocol.Request, rid: int) -> Dict[str, Any]:
        self._shutdown.set()  # handle_stream stops serving once the reply is out
        # this request is counted once its reply is built: add it here
        return {"stopping": True, "requests_served": self.requests_served() + 1}


class OnlineClient:
    """Small blocking client for the daemon's protocol.

    One round trip per request: an error reply raises at once
    (:class:`~repro.errors.DeadlineExceeded` for ``deadline``,
    :class:`~repro.errors.ServiceError` for anything else).
    """

    def __init__(self, socket_path: Union[str, Path], *, timeout: float = 30.0) -> None:
        self.socket_path = str(socket_path)
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(timeout)
        self._sock.connect(self.socket_path)
        self._rfile = self._sock.makefile("rb")
        self._next_id = 0

    # ------------------------------------------------------------------ #

    def request(self, cmd: str, session: Optional[str] = None, **fields: Any) -> Dict[str, Any]:
        """Send one request; returns the ``result`` object on success.

        Raises :class:`~repro.errors.DeadlineExceeded` on a ``deadline``
        reply and :class:`~repro.errors.ServiceError` on any other error.
        """
        response = self._roundtrip(cmd, session, fields)
        if response.get("ok"):
            return response.get("result", {})
        error = response.get("error", {})
        message = f"{error.get('type', 'Error')}: {error.get('message', '')}"
        if error.get("kind") == "deadline":
            raise DeadlineExceeded(message)
        raise ServiceError(message)

    def _roundtrip(
        self, cmd: str, session: Optional[str], fields: Mapping[str, Any]
    ) -> Dict[str, Any]:
        self._next_id += 1
        payload: Dict[str, Any] = {"id": self._next_id, "cmd": cmd, **fields}
        if session is not None:
            payload["session"] = session
        self._sock.sendall(protocol.encode(payload))
        line = protocol.read_line(self._rfile)
        if line is None:
            raise ServiceError("daemon closed the connection mid-request")
        response = protocol.decode_response(line)
        if response.get("id") not in (0, self._next_id):
            raise ServiceError(
                f"response id {response.get('id')} does not match request "
                f"id {self._next_id}"
            )
        return response

    # convenience verbs ------------------------------------------------- #

    def ping(self) -> Dict[str, Any]:
        return self.request("ping")

    def create(self, session: str, n_x: int, n_y: int, edges=None) -> Dict[str, Any]:
        return self.request(
            "create", session, n_x=n_x, n_y=n_y,
            edges=[[int(x), int(y)] for x, y in (edges or [])],
        )

    def update(
        self,
        session: str,
        inserts: Iterable = (),
        deletes: Iterable = (),
        deadline_seconds: Optional[float] = None,
    ) -> Dict[str, Any]:
        fields: Dict[str, Any] = {
            "inserts": [[int(x), int(y)] for x, y in inserts],
            "deletes": [[int(x), int(y)] for x, y in deletes],
        }
        if deadline_seconds is not None:
            fields["deadline_seconds"] = deadline_seconds
        return self.request("update", session, **fields)

    def match(self, session: str, *, pairs: bool = False, verify: bool = False) -> Dict[str, Any]:
        return self.request("match", session, pairs=pairs, verify=verify)

    def stats(self, session: Optional[str] = None) -> Dict[str, Any]:
        return self.request("stats", session)

    def metrics(self) -> Dict[str, Any]:
        return self.request("metrics")

    def snapshot(self, session: str) -> Dict[str, Any]:
        return self.request("snapshot", session)

    def load(self, session: str, key: str) -> Dict[str, Any]:
        return self.request("load", session, key=key)

    def close_session(self, session: str) -> Dict[str, Any]:
        return self.request("close", session)

    def shutdown_server(self) -> Dict[str, Any]:
        return self.request("shutdown")

    def close(self) -> None:
        try:
            self._rfile.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "OnlineClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
