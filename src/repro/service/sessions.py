"""Per-graph session management for the online matching daemon.

A *session* is one resident graph plus its incrementally maintained
maximum matching (:class:`~repro.matching.incremental.IncrementalMatcher`)
and its service counters. The :class:`SessionManager` holds sessions in an
LRU map capped at ``max_sessions``: every create/load/touch bumps recency,
and creating past the cap evicts the least-recently-used session (counted
once, in the telemetry registry's ``repro_online_session_evictions_total``:
an eviction is an SLO-relevant event, because the next request for that
graph pays a full rebuild or snapshot restore).

Snapshots go through the existing content-addressed graph cache
(:class:`repro.cache.GraphCache`): the session's canonical (sorted) edge
list is hashed into a ``snapshot`` spec key and the CSR is stored like any
prepared graph, so restores are memory-mapped and integrity-checked by the
same machinery the batch service uses. The matching itself is *not*
persisted — a restore recomputes it from scratch and the daemon re-repairs
incrementally from there; the graph is the expensive part, and recomputing
keeps restore trivially sound (nothing stale to trust).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ServiceError
from repro.matching.incremental import BatchRepairStats, IncrementalMatcher
from repro.telemetry.session import Telemetry


@dataclass
class SessionStats:
    """Service counters for one session (reported by the stats command)."""

    created_wall: float = 0.0
    updates_applied: int = 0
    batches_applied: int = 0
    augmentations: int = 0
    bfs_rounds: int = 0
    repair_seconds_total: float = 0.0

    def to_dict(self) -> dict:
        return {
            "created_wall": round(self.created_wall, 6),
            "updates_applied": self.updates_applied,
            "batches_applied": self.batches_applied,
            "augmentations": self.augmentations,
            "bfs_rounds": self.bfs_rounds,
            "repair_seconds_total": round(self.repair_seconds_total, 6),
        }


class Session:
    """One resident graph + matching + counters.

    ``lock`` serializes everything that mutates or reads the matcher
    (update, match, snapshot): connections are served on separate threads,
    and a repair must never interleave with another repair or a read.
    """

    def __init__(self, name: str, matcher: IncrementalMatcher, wall: float) -> None:
        self.name = name
        self.matcher = matcher
        self.stats = SessionStats(created_wall=wall)
        self.lock = threading.Lock()

    def record_batch(self, stats: BatchRepairStats, seconds: float) -> None:
        s = self.stats
        s.updates_applied += stats.inserted + stats.deleted
        s.batches_applied += 1
        s.augmentations += stats.augmented
        s.bfs_rounds += stats.bfs_rounds
        s.repair_seconds_total += seconds

    def describe(self) -> dict:
        m = self.matcher
        return {
            "session": self.name,
            "n_x": m.n_x,
            "n_y": m.n_y,
            "edges": m.nnz,
            "cardinality": m.cardinality,
            **self.stats.to_dict(),
        }


class SessionManager:
    """LRU-capped map of resident sessions.

    Thread-safe: the daemon serves connections from multiple threads, and
    every public method takes the manager lock. The lock is coarse by
    design — session operations are short relative to repair work, and a
    single lock keeps the LRU order and the session map trivially
    consistent. Evictions are counted in ``telemetry`` (a fresh
    :class:`~repro.telemetry.session.Telemetry` when none is given).
    """

    def __init__(
        self,
        *,
        max_sessions: int = 16,
        cache=None,
        telemetry=None,
    ) -> None:
        if max_sessions < 1:
            raise ServiceError(f"max_sessions must be >= 1, got {max_sessions}")
        self.max_sessions = int(max_sessions)
        self.cache = cache
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._lock = threading.RLock()
        self._sessions: "OrderedDict[str, Session]" = OrderedDict()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def create(
        self,
        name: str,
        n_x: int,
        n_y: int,
        edges: Optional[List[Tuple[int, int]]] = None,
        *,
        wall: float = 0.0,
    ) -> Session:
        """Create (or replace) a session from explicit dimensions + edges."""
        pairs = np.asarray(edges or [], dtype=np.int64).reshape(-1, 2)
        matcher = IncrementalMatcher.from_edges(n_x, n_y, pairs[:, 0], pairs[:, 1])
        return self._install(name, matcher, wall)

    def load_snapshot(self, name: str, key: str, *, wall: float = 0.0) -> Session:
        """Restore a session from a cache snapshot key (matching recomputed)."""
        if self.cache is None:
            raise ServiceError(
                "this daemon has no graph cache configured; start it with "
                "--cache-dir to enable snapshot/load"
            )
        prepared = self.cache.load_entry(key)
        if prepared is None:
            raise ServiceError(f"no cache entry for snapshot key {key!r}")
        matcher = IncrementalMatcher.from_graph(prepared.graph)
        return self._install(name, matcher, wall)

    def snapshot(self, name: str) -> str:
        """Persist the session's graph into the cache; returns the key."""
        if self.cache is None:
            raise ServiceError(
                "this daemon has no graph cache configured; start it with "
                "--cache-dir to enable snapshot/load"
            )
        session = self.get(name)
        matcher = session.matcher
        with session.lock:
            h = hashlib.sha256()
            h.update(f"{matcher.n_x},{matcher.n_y};".encode("ascii"))
            for x, y in matcher.edge_list():
                h.update(f"{x},{y};".encode("ascii"))
            # The spec name participates in the cache key, so it must NOT be
            # the session name: two sessions holding the same graph have to
            # address the same entry. The session only rides in `source`.
            prepared = self.cache.prepare_spec(
                "snapshot",
                "graph",
                {"n_x": matcher.n_x, "n_y": matcher.n_y, "edges_sha": h.hexdigest()},
                lambda: matcher.graph(),
                source=f"online-session:{name}",
            )
        return prepared.key

    def get(self, name: str) -> Session:
        """Look up a session and bump it to most-recently-used."""
        with self._lock:
            session = self._sessions.get(name)
            if session is None:
                raise ServiceError(
                    f"no such session {name!r}; create or load it first "
                    f"(resident: {sorted(self._sessions)})"
                )
            self._sessions.move_to_end(name)
            return session

    def close(self, name: str) -> bool:
        """Drop a session; returns whether it existed."""
        with self._lock:
            return self._sessions.pop(name, None) is not None

    def names(self) -> List[str]:
        with self._lock:
            return list(self._sessions)

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _install(self, name: str, matcher: IncrementalMatcher, wall: float) -> Session:
        session = Session(name, matcher, wall)
        with self._lock:
            self._sessions[name] = session
            self._sessions.move_to_end(name)
            while len(self._sessions) > self.max_sessions:
                self._sessions.popitem(last=False)
                self.telemetry.count_eviction()
        return session
