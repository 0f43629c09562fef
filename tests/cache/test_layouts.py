"""Stale reordered layouts in the graph cache.

Stores written while vertex reordering existed hold ``kind="layout"``
entries: a permuted CSR plus its ``x_perm``/``y_perm`` pair, with the
strategy and the parent prepared key in ``meta.json``. Serving one would
hand back a relabelled graph as if it were the original, so a lookup
misses on it. ``cache ls`` still lists it (as ``layout (stale)``),
``verify()`` still checksums every array of it, ``clear()`` removes it,
and damage to it never touches its parent entry.
"""

from __future__ import annotations

import json

import pytest

from repro.cache import GraphCache
from repro.cli import main
from repro.graph.generators import power_law_bipartite
from repro.graph.permute import permute, random_permutation

STALE_KEY = "ab" * 32


def _builder():
    return power_law_bipartite(120, 120, avg_degree=4.0, exponent=2.0, seed=11)


@pytest.fixture
def cache(tmp_path):
    return GraphCache(tmp_path / "store")


@pytest.fixture
def prepared(cache):
    return cache.prepare_spec("test", "skewed", {"seed": 11}, _builder)


@pytest.fixture
def stale(cache, prepared):
    """A layout entry as the removed reordering stage wrote it."""
    graph = prepared.graph
    x_perm = random_permutation(graph.n_x, seed=1)
    y_perm = random_permutation(graph.n_y, seed=2)
    permuted, _, _ = permute(graph, x_perm, y_perm)
    cache._store(
        STALE_KEY, permuted, kind="layout", fmt="derived", source="unit:g",
        extra_arrays={"x_perm": x_perm, "y_perm": y_perm},
    )
    _patch_meta(cache, parent=prepared.key)
    return STALE_KEY


def _patch_meta(cache, **fields):
    path = cache._entry_dir(STALE_KEY) / "meta.json"
    meta = json.loads(path.read_text())
    meta.update(fields)
    path.write_text(json.dumps(meta))


def _parent_still_warm(cache):
    return cache.prepare_spec("test", "skewed", {"seed": 11}, _builder).from_cache


class TestLayoutCorruption:
    def test_corrupt_layout_is_a_scoped_miss(self, cache, stale):
        victim = cache._entry_dir(stale) / "x_perm.npy"
        victim.write_bytes(victim.read_bytes()[:-16])
        assert cache.load_entry(stale) is None
        # Only the damaged layout is reported; its parent still answers warm.
        assert [key for key, _ in cache.verify()] == [stale]
        assert _parent_still_warm(cache)

    def test_verify_flags_bit_flip_in_perm_array(self, cache, stale):
        assert cache.verify() == []
        victim = cache._entry_dir(stale) / "y_perm.npy"
        raw = bytearray(victim.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        victim.write_bytes(bytes(raw))
        problems = cache.verify()
        assert len(problems) == 1
        key, problem = problems[0]
        assert key == stale and "y_perm" in problem

    def test_mangled_layout_meta_falls_back(self, cache, stale):
        (cache._entry_dir(stale) / "meta.json").write_text("{not json")
        assert cache.load_entry(stale) is None
        assert not cache._entry_dir(stale).exists()
        assert _parent_still_warm(cache)

    @pytest.mark.parametrize("strategy", ["degree", "bfs"])
    def test_stale_strategy_entry_is_listed_verified_and_missed(
        self, cache, stale, strategy, capsys
    ):
        _patch_meta(cache, strategy=strategy)
        root = str(cache.root)
        assert main(["cache", "ls", "--cache-dir", root]) == 0
        (line,) = [
            ln for ln in capsys.readouterr().out.splitlines() if stale[:12] in ln
        ]
        assert "layout (stale): unit:g" in line
        assert cache.verify() == []
        assert main(["cache", "verify", "--cache-dir", root]) == 0
        # A lookup misses but keeps the entry for ls/verify/clear.
        assert cache.load_entry(stale) is None
        assert stale in {e["key"] for e in cache.entries()}

    def test_cleared(self, cache, stale):
        assert cache.clear() == 2
        assert not cache._entry_dir(stale).exists()
