"""The online daemon's ``GET /metrics`` endpoint over plain HTTP.

Only a daemon started with ``metrics_port`` imports this module, so the
other starts do not load :mod:`http.server`.
"""

from __future__ import annotations

from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any


class MetricsHandler(BaseHTTPRequestHandler):
    """``GET /metrics`` → the daemon's Prometheus text exposition.

    Deliberately tiny: scrape-only, no other routes, loopback-bound. The
    line protocol's ``metrics`` command returns the same text for clients
    already on the socket; this endpoint exists for scrapers that only
    speak HTTP.
    """

    server_version = "repro-match"

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        if self.path.split("?", 1)[0] not in ("/metrics", "/"):
            self.send_error(404, "only /metrics is served")
            return
        body = self.server.daemon_ref.prometheus_exposition().encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt: str, *args: Any) -> None:  # noqa: D102
        return  # scrapes are high-frequency noise; the daemon stays quiet


class MetricsServer(ThreadingHTTPServer):
    """Loopback HTTP server for :class:`MetricsHandler`; ``daemon_ref`` is
    the :class:`~repro.service.online.MatchingDaemon` it reads."""

    daemon_threads = True
    allow_reuse_address = True
