"""Model-based test of :class:`IncrementalMatcher` against a plain edge set.

A ``hypothesis`` state machine drives single inserts and deletes, mixed
batches (with duplicates and insert-then-delete pairs), empty repairs and
the read-only views. A Python ``set`` of edges is the model. After every
step the matcher's edge set must equal the model's, and its matching must
be maximum: its cardinality equals scipy's ``maximum_bipartite_matching``
on the model (an oracle sharing no code with this package) and
``verify_maximum`` certifies it on the matcher's own graph.

The goldens at the bottom pin the canonical edge order and the snapshot
cache key for one fixed edit history, so a storage rewrite cannot change
what a snapshot hashes to.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from repro.cache import GraphCache
from repro.errors import MatchingError
from repro.matching.incremental import IncrementalMatcher
from repro.matching.verify import verify_maximum
from repro.service.sessions import SessionManager

MAX_SIDE = 9
coords = st.integers(0, MAX_SIDE - 1)
ops = st.sampled_from(["insert", "+", "add", "delete", "-", "remove", "del"])


def scipy_cardinality(n_x: int, n_y: int, edges) -> int:
    """Maximum matching size of ``edges`` by scipy's compiled matcher."""
    pairs = sorted(edges)
    xs = np.array([x for x, _ in pairs], dtype=np.int64)
    ys = np.array([y for _, y in pairs], dtype=np.int64)
    biadj = csr_matrix((np.ones(xs.size), (xs, ys)), shape=(n_x, n_y))
    return int((maximum_bipartite_matching(biadj, perm_type="column") >= 0).sum())


class IncrementalMachine(RuleBasedStateMachine):
    @initialize(n_x=st.integers(1, MAX_SIDE), n_y=st.integers(1, MAX_SIDE))
    def start(self, n_x, n_y):
        self.matcher = IncrementalMatcher(n_x, n_y)
        self.model = set()
        self.n_x, self.n_y = n_x, n_y

    def edge(self, x, y):
        return x % self.n_x, y % self.n_y

    @rule(x=coords, y=coords)
    def insert(self, x, y):
        x, y = self.edge(x, y)
        before = self.matcher.cardinality
        grew = self.matcher.add_edge(x, y)
        if (x, y) in self.model:
            assert grew is False
        self.model.add((x, y))
        assert grew == (self.matcher.cardinality == before + 1)

    @rule(x=coords, y=coords)
    def delete(self, x, y):
        x, y = self.edge(x, y)
        before = self.matcher.cardinality
        shrank = self.matcher.remove_edge(x, y)
        if (x, y) not in self.model:
            assert shrank is False
        self.model.discard((x, y))
        assert shrank == (self.matcher.cardinality == before - 1)

    @rule(
        batch=st.lists(st.tuples(ops, coords, coords), max_size=12),
        pairs=st.lists(st.tuples(coords, coords), max_size=3),
        dup=st.booleans(),
    )
    def mixed_batch(self, batch, pairs, dup):
        updates = [(op, *self.edge(x, y)) for op, x, y in batch]
        # insert-then-delete pairs net out to absent; duplicates are skipped
        for x, y in pairs:
            updates += [("insert", *self.edge(x, y)), ("delete", *self.edge(x, y))]
        if dup and updates:
            updates += updates[: len(updates) // 2 + 1]
        inserted = deleted = skipped = 0
        for op, x, y in updates:
            if op in ("insert", "+", "add"):
                if (x, y) in self.model:
                    skipped += 1
                else:
                    self.model.add((x, y))
                    inserted += 1
            elif (x, y) in self.model:
                self.model.discard((x, y))
                deleted += 1
            else:
                skipped += 1
        stats = self.matcher.apply_batch(updates)
        assert (stats.inserted, stats.deleted, stats.skipped) == (
            inserted, deleted, skipped,
        )
        assert 0 <= stats.freed <= deleted
        assert stats.bfs_rounds >= 1
        assert stats.cardinality == self.matcher.cardinality

    @rule()
    def empty_repair(self):
        before = self.matcher.matching().pairs()
        stats = self.matcher.repair()
        assert stats.augmented == 0
        assert (stats.inserted, stats.deleted, stats.skipped, stats.freed) == (0, 0, 0, 0)
        assert self.matcher.matching().pairs() == before

    @rule(x=coords, y=coords)
    def has_edge(self, x, y):
        x, y = self.edge(x, y)
        assert self.matcher.has_edge(x, y) == ((x, y) in self.model)

    @rule(x=st.integers(-2, MAX_SIDE + 2), y=st.integers(-2, MAX_SIDE + 2))
    def out_of_range(self, x, y):
        if 0 <= x < self.n_x and 0 <= y < self.n_y:
            return
        with pytest.raises(MatchingError):
            self.matcher.add_edge(x, y)
        with pytest.raises(MatchingError):
            self.matcher.apply_batch([("delete", x, y)])

    @rule()
    def edge_list(self):
        assert self.matcher.edge_list() == sorted(self.model)

    @rule()
    def graph(self):
        graph = self.matcher.graph()
        assert (graph.n_x, graph.n_y) == (self.n_x, self.n_y)
        assert graph.nnz == len(self.model)
        assert sorted(graph.edges()) == sorted(self.model)

    @invariant()
    def matching_is_maximum(self):
        if not hasattr(self, "matcher"):
            return
        assert self.matcher.cardinality == scipy_cardinality(
            self.n_x, self.n_y, self.model
        )
        verify_maximum(self.matcher.graph(), self.matcher.matching())


IncrementalMachine.TestCase.settings = settings(
    max_examples=60,
    stateful_step_count=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestIncrementalMachine = IncrementalMachine.TestCase


# --------------------------------------------------------------------------- #
# goldens: canonical edge order and snapshot key of a fixed edit history
# --------------------------------------------------------------------------- #

GOLDEN_EDGE_LIST_SHA = (
    "7cfc06649f73d0262a7fd3d8df075e89867082dde6747457c263042c6c37f0be"
)
# The snapshot key hashes ``cache.keys.BUILDER_VERSION`` too (recorded at 3).
GOLDEN_SNAPSHOT_KEY = (
    "480295524a6602a4f27b3a99b6bc0bdb4ada115866fc1f98fb68f003988f665c"
)


def fixed_history() -> IncrementalMatcher:
    """A deterministic mix of batches and single-edge edits on 40 x 45."""
    rng = np.random.default_rng(16)
    m = IncrementalMatcher(40, 45)
    m.apply_batch([("insert", int(rng.integers(40)), int(rng.integers(45)))
                   for _ in range(160)])
    for _ in range(6):
        batch = []
        for _ in range(24):
            op = "delete" if rng.random() < 0.35 else "insert"
            batch.append((op, int(rng.integers(40)), int(rng.integers(45))))
        m.apply_batch(batch)
        x, y = int(rng.integers(40)), int(rng.integers(45))
        m.add_edge(x, y)
        m.remove_edge(*m.edge_list()[int(rng.integers(len(m.edge_list())))])
    return m


def edge_list_sha(matcher: IncrementalMatcher) -> str:
    h = hashlib.sha256()
    for x, y in matcher.edge_list():
        h.update(f"{x},{y};".encode("ascii"))
    return h.hexdigest()


def test_edge_list_golden():
    assert edge_list_sha(fixed_history()) == GOLDEN_EDGE_LIST_SHA


def test_snapshot_key_golden(tmp_path):
    mgr = SessionManager(cache=GraphCache(tmp_path / "cache"))
    session = mgr.create("g", 40, 45)
    session.matcher = fixed_history()
    assert mgr.snapshot("g") == GOLDEN_SNAPSHOT_KEY
