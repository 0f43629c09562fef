"""GraphCache behaviour: hit/miss, integrity, eviction, warm starts,
concurrent callers.

The store's contract: a hit returns bit-identical arrays to a rebuild, a
corrupted entry is indistinguishable from a miss (never an error, never a
wrong graph), the LRU cap holds after every store, and threads sharing one
store see neither errors nor torn entries. Structural checks run on every
lookup; ``verify()`` is the deep bit-for-bit pass.
"""

from __future__ import annotations

import json
import sys
import threading
import zlib

import numpy as np
import pytest

from repro.cache import GraphCache
from repro.cache.keys import hash_file
from repro.cache.prepare import warm_start_matching
from repro.cli import main
from repro.graph.generators import random_bipartite
from repro.graph.serialize import save_graph
from repro.telemetry.session import Telemetry


def _builder(n, seed):
    return lambda: random_bipartite(n, n, 4 * n, seed=seed)


def _stored(mates):
    """A warm-start file's array: ``mates`` with its CRC-32 appended."""
    mates = np.asarray(mates, dtype=np.int64)
    return np.append(mates, zlib.crc32(mates))


def _consistent_non_edge(graph, good):
    """``good`` with one matched X moved onto a free Y it has no edge to."""
    x, y = next(
        (x, y) for x in np.flatnonzero(good.mate_x != -1)
        for y in np.flatnonzero(good.mate_y == -1) if not graph.has_edge(int(x), int(y))
    )
    forged = good.copy()
    forged.mate_y[forged.mate_x[x]] = -1
    forged.mate_x[x], forged.mate_y[y] = y, x
    assert forged.is_consistent()
    return np.concatenate([forged.mate_x, forged.mate_y])


@pytest.fixture
def cache(tmp_path):
    return GraphCache(tmp_path / "store")


class TestPrepareRoundTrip:
    def test_miss_then_hit_bit_identical(self, cache):
        fresh = _builder(50, 1)()
        cold = cache.prepare_spec("test", "g", {"seed": 1}, _builder(50, 1))
        assert not cold.from_cache
        warm = cache.prepare_spec("test", "g", {"seed": 1}, _builder(50, 1))
        assert warm.from_cache
        assert warm.key == cold.key
        for got in (cold.graph, warm.graph):
            np.testing.assert_array_equal(got.x_ptr, fresh.x_ptr)
            np.testing.assert_array_equal(got.x_adj, fresh.x_adj)
            np.testing.assert_array_equal(got.y_ptr, fresh.y_ptr)
            np.testing.assert_array_equal(got.y_adj, fresh.y_adj)
            np.testing.assert_array_equal(got.deg_x, fresh.deg_x)
            np.testing.assert_array_equal(got.deg_y, fresh.deg_y)

    def test_hit_is_memory_mapped(self, cache):
        cache.prepare_spec("test", "g", {}, _builder(40, 2))
        warm = cache.prepare_spec("test", "g", {}, _builder(40, 2))
        base = warm.graph.x_adj
        while base.base is not None and not isinstance(base, np.memmap):
            base = base.base
        assert isinstance(base, np.memmap), "warm arrays should stay mmap-backed"

    def test_hit_never_calls_builder(self, cache):
        cache.prepare_spec("test", "g", {}, _builder(30, 3))

        def exploding_builder():
            raise AssertionError("builder ran on a cache hit")

        warm = cache.prepare_spec("test", "g", {}, exploding_builder)
        assert warm.from_cache

    def test_file_prepare_and_content_invalidation(self, cache, tmp_path):
        g1 = random_bipartite(30, 30, 100, seed=4)
        path = tmp_path / "graph.npz"
        save_graph(g1, path)
        cold = cache.prepare_file(path)
        assert not cold.from_cache
        assert cache.prepare_file(path).from_cache
        # New content at the same path: the old entry must not answer.
        g2 = random_bipartite(30, 30, 100, seed=5)
        save_graph(g2, path)
        changed = cache.prepare_file(path)
        assert not changed.from_cache
        assert changed.key != cold.key
        np.testing.assert_array_equal(changed.graph.y_adj, g2.y_adj)

    def test_telemetry_counters_and_build_span(self, tmp_path):
        tel = Telemetry()
        cache = GraphCache(tmp_path / "store", telemetry=tel)
        cache.prepare_spec("test", "g", {}, _builder(30, 6))
        assert len(tel.tracer.by_name("build")) == 1
        cache.prepare_spec("test", "g", {}, _builder(30, 6))
        # The warm lookup must not have opened a build span (the
        # warm-run-skips-ingest acceptance criterion).
        assert len(tel.tracer.by_name("build")) == 1
        assert tel.metrics.counter("repro_cache_hits_total", "").value == 1
        assert tel.metrics.counter("repro_cache_misses_total", "").value == 1
        assert tel.metrics.gauge("repro_cache_bytes", "").value == cache.total_bytes


class TestSnapIds:
    """A SNAP entry keeps the file's original ids beside the compacted graph."""

    @pytest.fixture
    def snap(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("100 300\n100 200\n500 200\n")
        return path

    def test_miss_and_hit_carry_the_ids(self, cache, snap):
        cold = cache.prepare_file(snap, "snap")
        warm = cache.prepare_file(snap, "snap")
        assert not cold.from_cache and warm.from_cache
        for prepared in (cold, warm):
            assert prepared.labels.x_ids.tolist() == [100, 500]
            assert prepared.labels.y_ids.tolist() == [200, 300]
        assert (cache._entry_dir(warm.key) / "ids.npy").is_file()
        assert cache.verify() == []

    def test_other_formats_store_no_ids(self, cache, tmp_path):
        path = tmp_path / "graph.npz"
        save_graph(random_bipartite(10, 10, 30, seed=1), path)
        prepared = cache.prepare_file(path)
        assert prepared.labels is None
        assert not (cache._entry_dir(prepared.key) / "ids.npy").exists()

    @pytest.mark.parametrize("damage", ["missing", "truncated", "bit-flip"])
    def test_damaged_ids_are_a_miss(self, cache, snap, damage):
        cold = cache.prepare_file(snap, "snap")
        ids = cache._entry_dir(cold.key) / "ids.npy"
        if damage == "missing":
            ids.unlink()
        elif damage == "truncated":
            ids.write_bytes(ids.read_bytes()[:-8])
        else:
            raw = bytearray(ids.read_bytes())
            raw[-9] ^= 1  # the last id's top byte; the CRC no longer matches
            ids.write_bytes(bytes(raw))
        assert [key for key, _ in cache.verify()] == [cold.key]
        again = cache.prepare_file(snap, "snap")
        assert not again.from_cache
        assert again.labels.y_ids.tolist() == [200, 300]
        assert cache.verify() == []


class TestCorruption:
    def _seed_entry(self, cache):
        cold = cache.prepare_spec("test", "g", {}, _builder(40, 7))
        # Reference arrays from an independent build: the cold graph's own
        # arrays are mmap-backed by the very files these tests corrupt.
        return cold, _builder(40, 7)()

    def test_truncated_array_falls_back_to_rebuild(self, cache):
        cold, expected = self._seed_entry(cache)
        entry = cache._entry_dir(cold.key)
        victim = entry / "graph.npy"
        victim.write_bytes(victim.read_bytes()[:-16])
        again = cache.prepare_spec("test", "g", {}, _builder(40, 7))
        assert not again.from_cache, "corrupt entry must read as a miss"
        np.testing.assert_array_equal(again.graph.y_adj, expected.y_adj)
        # The rebuild re-stored a clean entry.
        assert cache.prepare_spec("test", "g", {}, _builder(40, 7)).from_cache
        assert cache.verify() == []

    def test_missing_array_falls_back(self, cache):
        cold, expected = self._seed_entry(cache)
        (cache._entry_dir(cold.key) / "graph.npy").unlink()
        again = cache.prepare_spec("test", "g", {}, _builder(40, 7))
        assert not again.from_cache
        np.testing.assert_array_equal(again.graph.deg_x, expected.deg_x)

    def test_mangled_meta_falls_back(self, cache):
        cold, _ = self._seed_entry(cache)
        (cache._entry_dir(cold.key) / "meta.json").write_text("{not json")
        assert not cache.prepare_spec("test", "g", {}, _builder(40, 7)).from_cache

    def test_same_size_bit_flip_caught_by_deep_verify(self, cache):
        # A flipped byte mid-array survives the structural lookup checks
        # (size and shape unchanged) — exactly what verify() exists for.
        cold, _ = self._seed_entry(cache)
        victim = cache._entry_dir(cold.key) / "graph.npy"
        raw = bytearray(victim.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        victim.write_bytes(bytes(raw))
        assert cache.prepare_spec("test", "g", {}, _builder(40, 7)).from_cache
        problems = cache.verify()
        assert len(problems) == 1
        key, problem = problems[0]
        assert key == cold.key and "graph.npy checksum mismatch" in problem


class TestDeepVerifyWarmStarts:
    """``verify()`` checks each cached warm start against the entry's graph."""

    def _entry_with_warm_start(self, cache):
        prepared = cache.prepare_spec("test", "g", {}, _builder(40, 14))
        good = cache.warm_start(prepared, 0)
        assert cache.verify() == []
        return prepared, good, prepared.entry_dir / "ks_0.npy"

    def test_flipped_mate_x_entry_reported(self, cache):
        prepared, good, path = self._entry_with_warm_start(cache)
        stored = np.load(path)
        x = int(np.flatnonzero(good.mate_x != -1)[0])
        stored[x] = -1  # x forgets its mate, its mate still points back
        np.save(path, stored)
        (key, problem), = cache.verify()
        assert key == prepared.key and "ks_0.npy" in problem

    def test_consistent_non_edge_pair_reported(self, cache):
        # With a matching CRC, only the check against the graph can see it.
        prepared, good, path = self._entry_with_warm_start(cache)
        np.save(path, _stored(_consistent_non_edge(prepared.graph, good)))
        (key, problem), = cache.verify()
        assert key == prepared.key and "not a valid matching" in problem

    def test_truncated_warm_start_reported(self, cache):
        prepared, _, path = self._entry_with_warm_start(cache)
        path.write_bytes(path.read_bytes()[:-8])
        (key, problem), = cache.verify()
        assert key == prepared.key and "ks_0.npy" in problem


class TestEviction:
    def test_lru_evicts_oldest_under_cap(self, tmp_path):
        probe = GraphCache(tmp_path / "probe")
        probe.prepare_spec("test", "probe", {}, _builder(60, 0))
        entry_bytes = probe.total_bytes
        # Room for two entries of this shape, not three.
        cache = GraphCache(tmp_path / "store", max_bytes=int(entry_bytes * 2.5))
        keys = [
            cache.prepare_spec("test", f"g{i}", {}, _builder(60, i)).key
            for i in range(3)
        ]
        held = {e["key"] for e in cache.entries()}
        assert keys[0] not in held, "least-recently-used entry should be evicted"
        assert {keys[1], keys[2]} <= held
        assert cache.total_bytes <= cache.max_bytes

    def test_hit_refreshes_recency(self, tmp_path):
        probe = GraphCache(tmp_path / "probe")
        probe.prepare_spec("test", "probe", {}, _builder(60, 0))
        entry_bytes = probe.total_bytes
        cache = GraphCache(tmp_path / "store", max_bytes=int(entry_bytes * 2.5))
        k0 = cache.prepare_spec("test", "g0", {}, _builder(60, 0)).key
        cache.prepare_spec("test", "g1", {}, _builder(60, 1))
        cache.prepare_spec("test", "g0", {}, _builder(60, 0))  # touch g0
        cache.prepare_spec("test", "g2", {}, _builder(60, 2))
        held = {e["key"] for e in cache.entries()}
        assert k0 in held, "a freshly hit entry must not be the victim"

    def test_hit_on_older_entry_still_bumps_it(self, cache):
        k0 = cache.prepare_spec("test", "g0", {}, _builder(60, 0)).key
        k1 = cache.prepare_spec("test", "g1", {}, _builder(60, 1)).key
        assert cache.prepare_spec("test", "g0", {}, _builder(60, 0)).from_cache
        assert [e["key"] for e in cache.entries()] == [k1, k0]
        cache.max_bytes = cache.total_bytes - 1
        assert cache._evict() == [k1]
        assert [e["key"] for e in cache.entries()] == [k0]

    def test_oversized_graph_served_without_store(self, tmp_path):
        cache = GraphCache(tmp_path / "store", max_bytes=64)
        prepared = cache.prepare_spec("test", "big", {}, _builder(50, 9))
        assert not prepared.from_cache
        assert prepared.graph.nnz == _builder(50, 9)().nnz
        assert cache.total_bytes <= 64

    def test_clear_removes_everything(self, cache):
        cache.prepare_spec("test", "a", {}, _builder(30, 1))
        cache.prepare_spec("test", "b", {}, _builder(30, 2))
        assert cache.clear() == 2
        assert cache.entries() == [] and cache.total_bytes == 0


class TestWarmStart:
    def test_cached_per_seed_and_equal_to_fresh(self, cache):
        prepared = cache.prepare_spec("test", "g", {}, _builder(80, 10))
        for seed in (0, 3):
            got = cache.warm_start(prepared, seed)
            want = warm_start_matching(prepared.graph, seed)
            np.testing.assert_array_equal(got.mate_x, want.mate_x)
            np.testing.assert_array_equal(got.mate_y, want.mate_y)
        assert cache.prepare_spec("test", "g", {}, _builder(80, 10)).from_cache
        assert [e["warm_seeds"] for e in cache.entries()] == [[0, 3]]

    def test_loaded_warm_start_is_writable(self, cache):
        prepared = cache.prepare_spec("test", "g", {}, _builder(40, 11))
        cache.warm_start(prepared, 0)
        again = cache.warm_start(cache.prepare_spec("test", "g", {}, _builder(40, 11)), 0)
        again.mate_x[:] = -1  # engines mutate the initial matching in place
        # And mutating one load must not poison the stored copy.
        clean = cache.warm_start(cache.prepare_spec("test", "g", {}, _builder(40, 11)), 0)
        want = warm_start_matching(prepared.graph, 0)
        np.testing.assert_array_equal(clean.mate_x, want.mate_x)

    def test_corrupt_warm_start_rebuilt(self, cache):
        prepared = cache.prepare_spec("test", "g", {}, _builder(40, 12))
        cache.warm_start(prepared, 0)
        path = prepared.entry_dir / "ks_0.npy"
        path.write_bytes(b"junk")
        got = cache.warm_start(prepared, 0)
        want = warm_start_matching(prepared.graph, 0)
        np.testing.assert_array_equal(got.mate_x, want.mate_x)
        self._assert_rewritten(path, want)

    @staticmethod
    def _assert_rewritten(path, want):
        stored = np.load(path)
        assert stored.dtype == np.int64
        np.testing.assert_array_equal(stored, _stored(np.concatenate([want.mate_x, want.mate_y])))

    def _recomputed(self, cache, prepared, stored):
        path = prepared.entry_dir / "ks_0.npy"
        np.save(path, stored)
        got = cache.warm_start(prepared, 0)
        want = warm_start_matching(prepared.graph, 0)
        assert got == want
        self._assert_rewritten(path, want)

    @pytest.mark.parametrize("reshape", [
        lambda stored: stored[:-1],
        lambda stored: np.concatenate([stored, [-1]]),
        lambda stored: stored.reshape(1, -1),
        lambda stored: stored.astype(np.int32),
    ])
    def test_misfit_warm_start_recomputed(self, cache, reshape):
        prepared = cache.prepare_spec("test", "g", {}, _builder(40, 12))
        cache.warm_start(prepared, 0)
        self._recomputed(cache, prepared, reshape(np.load(prepared.entry_dir / "ks_0.npy")))

    def test_inconsistent_warm_start_recomputed(self, cache):
        prepared = cache.prepare_spec("test", "g", {}, _builder(40, 12))
        good = cache.warm_start(prepared, 0)
        mates = np.concatenate([good.mate_x, good.mate_y])
        x = int(np.flatnonzero(good.mate_x != -1)[0])
        mates[x] = (mates[x] + 1) % prepared.graph.n_y  # its old mate still points to x
        self._recomputed(cache, prepared, _stored(mates))

    def test_damaged_non_edge_warm_start_recomputed(self, cache):
        # Damage that keeps the shape and leaves consistent mates holding a
        # non-edge pair: the stale CRC makes it a miss, not a failed run.
        prepared = cache.prepare_spec("test", "g", {}, _builder(40, 12))
        good = cache.warm_start(prepared, 0)
        stale_crc = np.load(prepared.entry_dir / "ks_0.npy")[-1]
        forged = _consistent_non_edge(prepared.graph, good)
        self._recomputed(cache, prepared, np.append(forged, stale_crc))

    def test_warm_start_file_is_raw_mates(self, cache):
        prepared = cache.prepare_spec("test", "g", {}, _builder(40, 12))
        got = cache.warm_start(prepared, 0)
        assert sorted(p.name for p in prepared.entry_dir.glob("ks_*")) == ["ks_0.npy"]
        self._assert_rewritten(prepared.entry_dir / "ks_0.npy", got)


class TestEntriesListing:
    def test_meta_summary(self, cache):
        prepared = cache.prepare_spec(
            "suite-ish", "g", {}, _builder(25, 13), source="unit:g"
        )
        cache.warm_start(prepared, 2)
        (entry,) = cache.entries()
        assert entry["kind"] == "suite-ish"
        assert entry["source"] == "unit:g"
        assert entry["n_x"] == 25 and entry["n_y"] == 25
        # The file system is the whole store: no index beside the entries,
        # and an entry is its meta, one graph file and its warm starts.
        assert [p.name for p in cache.root.iterdir()] == [entry["key"][:2]]
        files = {p.name: p for p in prepared.entry_dir.iterdir()}
        assert sorted(files) == ["graph.npy", "ks_2.npy", "meta.json"]
        assert entry["bytes"] == sum(p.stat().st_size for p in files.values())
        meta = json.loads(files["meta.json"].read_text())
        assert meta["sha256"] == hash_file(files["graph.npy"])
        assert meta["bytes"] == files["graph.npy"].stat().st_size


OLD_KEY = "cd" * 32


def _old_format_entry(cache, graph):
    """An entry as builder v2 wrote it: six per-array ``.npy`` files (the
    CSR and both degree vectors), each checksummed in ``meta.json``."""
    entry = cache._entry_dir(OLD_KEY)
    entry.mkdir(parents=True)
    arrays = {}
    for name in ("x_ptr", "x_adj", "y_ptr", "y_adj", "deg_x", "deg_y"):
        path = entry / f"{name}.npy"
        np.save(path, getattr(graph, name))
        arrays[name] = {"sha256": hash_file(path), "bytes": path.stat().st_size}
    meta = {
        "version": 1, "key": OLD_KEY, "kind": "suite", "format": "generator",
        "source": "unit:old", "builder_version": 2, "n_x": graph.n_x,
        "n_y": graph.n_y, "nnz": graph.nnz, "arrays": arrays,
    }
    (entry / "meta.json").write_text(json.dumps(meta))
    return OLD_KEY


class TestOldFormat:
    def test_old_format_entry_is_listed_reported_cleared_and_never_served(
        self, cache, capsys
    ):
        assert not cache.prepare_spec("test", "g", {}, _builder(40, 15)).from_cache
        old = _old_format_entry(cache, _builder(40, 15)())
        root = str(cache.root)
        assert main(["cache", "ls", "--cache-dir", root]) == 0
        (line,) = [
            ln for ln in capsys.readouterr().out.splitlines() if old[:12] in ln
        ]
        assert "written by builder v2" in line
        (key, problem), = cache.verify()
        assert key == old and "run `repro-match cache clear`" in problem
        assert main(["cache", "verify", "--cache-dir", root]) == 1
        # The old entry's trouble stays its own: the current one still hits.
        assert cache.prepare_spec("test", "g", {}, _builder(40, 15)).from_cache
        assert cache.clear() == 2
        assert not cache._entry_dir(old).exists()
        _old_format_entry(cache, _builder(40, 15)())
        assert cache.load_entry(old) is None


class TestConcurrentCallers:
    def test_threads_hit_and_store_one_store(self, cache):
        """4 threads hit 4 entries while 2 threads store the same new keys
        (and their warm starts): no call raises, every graph is exact."""
        specs = [(f"g{i}", _builder(60, i)) for i in range(4)]
        want = {name: build() for name, build in specs}
        for name, build in specs:
            cache.prepare_spec("test", name, {}, build)
        errors: list[BaseException] = []

        def same(got, expected):
            for name in ("x_ptr", "x_adj", "y_ptr", "y_adj", "deg_x", "deg_y"):
                np.testing.assert_array_equal(getattr(got, name), getattr(expected, name))

        def hit(t):
            try:
                for r in range(300):
                    name, build = specs[(t + r) % 4]
                    prepared = cache.prepare_spec("test", name, {}, build)
                    assert prepared.from_cache
                    same(prepared.graph, want[name])
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        def store(t):
            try:
                for r in range(40):
                    build = _builder(50, 100 + r)
                    prepared = cache.prepare_spec("test", "race", {"round": r}, build)
                    same(prepared.graph, build())
                    assert cache.warm_start(prepared, 0) == warm_start_matching(
                        prepared.graph, 0
                    )
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=hit, args=(t,)) for t in range(4)]
        threads += [threading.Thread(target=store, args=(t,)) for t in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(cache.entries()) == 4 + 40
        assert cache.verify() == []
