"""Content-addressed on-disk store of prepared graphs with LRU eviction.

Layout (one directory per entry, fanned out by key prefix)::

    <root>/index.json                      LRU bookkeeping (seq per key)
    <root>/<key[:2]>/<key>/meta.json       provenance + per-file checksums
    <root>/<key[:2]>/<key>/x_ptr.npy       CSR + degree arrays (one file
    <root>/<key[:2]>/<key>/...             each, so loads memory-map)
    <root>/<key[:2]>/<key>/ks_<seed>.npy   Karp-Sipser warm start per seed (one
                                           int64 array, mate_x ++ mate_y ++ crc32)

Design points:

* **Memory-mapped loads.** Every graph array is its own ``.npy``, opened
  with ``np.load(..., mmap_mode="r")``; a warm ``run`` touches only the
  pages the traversal actually reads. Load-time integrity checks are
  therefore *structural* (header fields, file sizes, shapes) — full
  SHA-256 verification would read every byte and defeat the mapping, so
  it lives in the explicit :meth:`GraphCache.verify` pass (``repro-match
  cache verify``).
* **Raw warm starts.** ``ks_<seed>.npy`` is read whole into a fresh
  writable array (the engines flip mates in place) and served only if its
  shape fits, its trailing CRC-32 matches the mates and the mates are
  consistent; anything else is recomputed. The CRC turns damage that kept
  the shape into a miss too. :meth:`GraphCache.verify` also checks that
  every warm start is a valid matching of its entry's graph.
* **Atomicity.** Entries are built in a temp directory and ``os.replace``d
  into place; the index is rewritten via temp file + rename. A crash
  leaves either the old state or the new one, never a torn entry.
* **Corruption = miss.** Any integrity failure during lookup deletes the
  entry and reports a miss; the caller rebuilds from source and re-stores.
* **LRU cap.** ``max_bytes`` bounds the store; every hit or store bumps
  the entry's monotonic ``seq`` and eviction removes lowest-``seq``
  entries until the total fits. A hit on the entry that already holds the
  top ``seq`` changes nothing, so it does not rewrite ``index.json``.
"""

from __future__ import annotations

import json
import os
import shutil
import zlib
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Union

import numpy as np

from repro.cache.keys import BUILDER_VERSION, file_key, hash_file, spec_key
from repro.cache.prepare import (
    PREPARED_ARRAYS,
    PreparedGraph,
    build_suite_graph,
    warm_start_matching,
)
from repro.errors import CacheCorruptionError
from repro.graph.csr import BipartiteCSR
from repro.graph.readers import read_graph_file, resolve_format
from repro.matching.base import Matching
from repro.matching.verify import is_valid_matching

DEFAULT_MAX_BYTES = 512 * 1024 * 1024
_INDEX_VERSION = 1
_META_VERSION = 1


class GraphCache:
    """Content-addressed graph-preparation cache (see module docstring)."""

    def __init__(
        self,
        root: Union[str, Path],
        *,
        max_bytes: int = DEFAULT_MAX_BYTES,
        telemetry: Optional[object] = None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_bytes = int(max_bytes)
        self.telemetry = telemetry

    # ------------------------------------------------------------------ #
    # public prepare API
    # ------------------------------------------------------------------ #

    def prepare_suite(self, name: str, scale: float) -> PreparedGraph:
        """Prepared experiment-suite graph (build-on-miss, store, load)."""
        return self.prepare_spec(
            "suite",
            name,
            {"scale": float(scale)},
            lambda: build_suite_graph(name, scale),
            source=f"suite:{name} scale={scale}",
        )

    def prepare_file(self, path: Union[str, Path], fmt: str = "auto") -> PreparedGraph:
        """Prepared on-disk graph, keyed by the file's raw bytes + format."""
        # The resolved format is part of the key: two byte-identical files
        # read by different parsers get distinct entries.
        fmt = resolve_format(path, fmt)
        key = file_key(path, fmt)
        return self._prepare(
            key,
            lambda: read_graph_file(path, fmt)[0],
            kind="file",
            fmt=fmt,
            source=str(path),
        )

    def prepare_spec(
        self,
        kind: str,
        name: str,
        params: Mapping[str, Any],
        builder: Callable[[], BipartiteCSR],
        *,
        source: str = "",
    ) -> PreparedGraph:
        """Prepared graph for any deterministic generator spec."""
        key = spec_key(kind, name, params)
        return self._prepare(
            key, builder, kind=kind, fmt="generator",
            source=source or f"{kind}:{name} {dict(params)}",
        )

    def load_entry(self, key: str) -> Optional[PreparedGraph]:
        """Load an existing entry by its content key, or ``None``.

        The lookup-by-key counterpart of the ``prepare_*`` builders, for
        callers that persisted a key instead of a spec — the online
        daemon's ``snapshot``/``load`` round trip restores sessions this
        way. Integrity failures behave like any lookup: the entry is
        removed and the call reports a miss.
        """
        if not key or any(c not in "0123456789abcdef" for c in key):
            return None
        return self._lookup(key)

    def warm_start(self, prepared: PreparedGraph, seed: int) -> Matching:
        """Karp-Sipser warm start for ``prepared``, cached per seed.

        Loaded matchings are fresh writable arrays (the engines flip them
        in place), so sharing an entry across runs is safe. A file that
        does not load, does not fit the graph or holds inconsistent mates
        is recomputed and rewritten.
        """
        graph = prepared.graph
        if prepared.entry_dir is None or not prepared.entry_dir.is_dir():
            return warm_start_matching(graph, seed)
        path = prepared.entry_dir / f"ks_{int(seed)}.npy"
        if path.is_file():
            try:
                return _read_warm_start(path, graph.n_x, graph.n_y)
            except CacheCorruptionError:
                pass  # corrupt warm start: rebuild it
        matching = warm_start_matching(graph, seed)
        _write_warm_start(path, matching)
        self._touch(prepared.key, bytes_delta=self._entry_bytes(prepared.entry_dir), absolute=True)
        self._evict(protect={prepared.key})
        return matching

    # ------------------------------------------------------------------ #
    # store inspection / maintenance (the `repro-match cache` verbs)
    # ------------------------------------------------------------------ #

    @property
    def total_bytes(self) -> int:
        index = self._load_index()
        return sum(int(e["bytes"]) for e in index["entries"].values())

    def entries(self) -> list[dict]:
        """All entries, least-recently-used first."""
        index = self._load_index()
        out = []
        for key, info in sorted(index["entries"].items(), key=lambda kv: kv[1]["seq"]):
            row = {"key": key, "bytes": int(info["bytes"]), "seq": int(info["seq"])}
            try:
                meta = self._read_meta(key)
                row.update(
                    kind=meta.get("kind", "?"),
                    source=meta.get("source", ""),
                    n_x=meta.get("n_x"),
                    n_y=meta.get("n_y"),
                    nnz=meta.get("nnz"),
                    warm_seeds=sorted(
                        int(p.stem.split("_", 1)[1])
                        for p in self._entry_dir(key).glob("ks_*.npy")
                    ),
                )
            except CacheCorruptionError as exc:
                row["corrupt"] = str(exc)
            out.append(row)
        return out

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        index = self._load_index()
        count = 0
        for key in list(index["entries"]):
            self._remove_entry(key)
            count += 1
        return count

    def verify(self) -> list[tuple[str, str]]:
        """Full integrity pass over every entry.

        SHA-256 of every array file against meta.json, then every cached
        warm start: it must load, fit the entry's shape, and be a
        consistent, valid matching of the entry's graph. Returns ``(key,
        problem)`` pairs; an empty list means the store is intact. This is
        the deep counterpart of the structural checks lookups perform.
        """
        problems: list[tuple[str, str]] = []
        index = self._load_index()
        for key in sorted(index["entries"]):
            try:
                meta = self._read_meta(key)
                entry = self._entry_dir(key)
                for name, info in meta["arrays"].items():
                    path = entry / f"{name}.npy"
                    if not path.is_file():
                        raise CacheCorruptionError(f"{name}.npy missing")
                    digest = hash_file(path)
                    if digest != info["sha256"]:
                        raise CacheCorruptionError(
                            f"{name}.npy checksum mismatch "
                            f"(stored {info['sha256'][:12]}, actual {digest[:12]})"
                        )
                self._verify_warm_starts(entry, meta)
            except CacheCorruptionError as exc:
                problems.append((key, str(exc)))
        return problems

    @staticmethod
    def _verify_warm_starts(entry: Path, meta: dict) -> None:
        """Raise :class:`CacheCorruptionError` unless every ``ks_<seed>.npy``
        of the (checksummed) entry is a valid matching of its graph."""
        paths = sorted(entry.glob("ks_*.npy"))
        if not paths:
            return
        graph = _read_graph(entry, meta)
        for path in paths:
            if not is_valid_matching(graph, _read_warm_start(path, graph.n_x, graph.n_y)):
                raise CacheCorruptionError(
                    f"{path.name} is not a valid matching of the entry's graph"
                )

    # ------------------------------------------------------------------ #
    # core prepare path
    # ------------------------------------------------------------------ #

    def _prepare(
        self,
        key: str,
        builder: Callable[[], BipartiteCSR],
        *,
        kind: str,
        fmt: str,
        source: str,
    ) -> PreparedGraph:
        tel = self.telemetry
        prepared = self._lookup(key)
        if prepared is not None:
            prepared.source = source
            if tel is not None:
                tel.count_cache(True, self.total_bytes)
            return prepared
        if tel is not None:
            with tel.step("build"):
                graph = builder()
        else:
            graph = builder()
        self._store(key, graph, kind=kind, fmt=fmt, source=source)
        if tel is not None:
            tel.count_cache(False, self.total_bytes)
        # Serve the stored entry so hot arrays are the memory-mapped ones
        # (identical bytes — they were just written from this graph).
        prepared = self._lookup(key)
        if prepared is not None:
            prepared.source = source
            prepared.from_cache = False  # this call built it: a miss
            return prepared
        # Entry evicted immediately (max_bytes smaller than the graph):
        # fall back to the freshly built object.
        return PreparedGraph(graph=graph, key=key, from_cache=False, source=source)

    def _lookup(self, key: str) -> Optional[PreparedGraph]:
        entry = self._entry_dir(key)
        if not entry.is_dir():
            return None
        try:
            meta = self._read_meta(key)
            if meta.get("kind") == "layout":
                # A reordered CSR written before reordering was removed:
                # never serve it as a graph, but leave it to `cache ls`,
                # `verify` and `clear`.
                return None
            graph = _read_graph(entry, meta)
        except CacheCorruptionError:
            # Fallback-to-rebuild: a broken entry must never mask the source.
            self._remove_entry(key)
            return None
        self._touch(key)
        return PreparedGraph(
            graph=graph,
            key=key,
            from_cache=True,
            source=str(meta.get("source", "")),
            entry_dir=entry,
            warm_seeds=tuple(
                sorted(int(p.stem.split("_", 1)[1]) for p in entry.glob("ks_*.npy"))
            ),
        )

    def _store(
        self,
        key: str,
        graph: BipartiteCSR,
        *,
        kind: str,
        fmt: str,
        source: str,
        extra_arrays: Optional[Mapping[str, np.ndarray]] = None,
    ) -> None:
        tmp = self.root / f".tmp-{key[:16]}-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        try:
            arrays = {
                "x_ptr": graph.x_ptr, "x_adj": graph.x_adj,
                "y_ptr": graph.y_ptr, "y_adj": graph.y_adj,
                "deg_x": graph.deg_x, "deg_y": graph.deg_y,
            }
            if extra_arrays:
                arrays.update(extra_arrays)
            meta_arrays = {}
            for name, arr in arrays.items():
                path = tmp / f"{name}.npy"
                np.save(path, arr)
                meta_arrays[name] = {
                    "sha256": hash_file(path),
                    "bytes": path.stat().st_size,
                }
            meta = {
                "version": _META_VERSION,
                "key": key,
                "kind": kind,
                "format": fmt,
                "source": source,
                "builder_version": BUILDER_VERSION,
                "n_x": int(graph.n_x),
                "n_y": int(graph.n_y),
                "nnz": int(graph.nnz),
                "arrays": meta_arrays,
            }
            meta_path = tmp / "meta.json"
            meta_path.write_text(json.dumps(meta, indent=2), encoding="utf-8")
            final = self._entry_dir(key)
            final.parent.mkdir(parents=True, exist_ok=True)
            if final.exists():
                shutil.rmtree(final)
            os.replace(tmp, final)
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        self._touch(key, bytes_delta=self._entry_bytes(self._entry_dir(key)), absolute=True)
        self._evict(protect={key})

    # ------------------------------------------------------------------ #
    # index + eviction
    # ------------------------------------------------------------------ #

    def _entry_dir(self, key: str) -> Path:
        return self.root / key[:2] / key

    def _entry_bytes(self, entry: Path) -> int:
        return sum(p.stat().st_size for p in entry.iterdir() if p.is_file())

    def _read_meta(self, key: str) -> dict:
        path = self._entry_dir(key) / "meta.json"
        try:
            meta = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise CacheCorruptionError(f"meta.json unreadable: {exc}") from exc
        required = {"version", "key", "arrays", "n_x", "n_y", "nnz", "builder_version"}
        if not required.issubset(meta):
            raise CacheCorruptionError(
                f"meta.json missing fields {sorted(required - set(meta))}"
            )
        if meta["key"] != key:
            raise CacheCorruptionError(
                f"entry directory/key mismatch ({meta['key'][:12]} != {key[:12]})"
            )
        return meta

    def _index_path(self) -> Path:
        return self.root / "index.json"

    def _load_index(self) -> dict:
        path = self._index_path()
        try:
            index = json.loads(path.read_text(encoding="utf-8"))
            if (
                index.get("version") == _INDEX_VERSION
                and isinstance(index.get("entries"), dict)
            ):
                return index
        except (OSError, ValueError):
            pass
        return self._rebuild_index()

    def _rebuild_index(self) -> dict:
        """Reconstruct LRU bookkeeping by scanning entry directories.

        Recency order is lost (keys are re-sequenced in scan order); sizes
        and membership are re-derived from disk, so a deleted or hand-edited
        index never strands entries.
        """
        entries: dict[str, dict] = {}
        seq = 0
        for prefix in sorted(self.root.iterdir()) if self.root.is_dir() else []:
            if not prefix.is_dir() or len(prefix.name) != 2:
                continue
            for entry in sorted(prefix.iterdir()):
                if entry.is_dir() and (entry / "meta.json").is_file():
                    entries[entry.name] = {
                        "bytes": self._entry_bytes(entry),
                        "seq": seq,
                    }
                    seq += 1
        index = {"version": _INDEX_VERSION, "next_seq": seq, "entries": entries}
        self._save_index(index)
        return index

    def _save_index(self, index: dict) -> None:
        path = self._index_path()
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(index, indent=0), encoding="utf-8")
        os.replace(tmp, path)

    def _touch(
        self, key: str, *, bytes_delta: Optional[int] = None, absolute: bool = False
    ) -> None:
        """Bump ``key`` to most-recently-used; optionally set its size.

        A key that already holds the top ``seq`` is most recently used, so a
        plain touch of it leaves ``index.json`` as it is (the repeat-hit case
        of a warm loop); the LRU order is the same either way.
        """
        index = self._load_index()
        entries = index["entries"]
        if (
            bytes_delta is None
            and key in entries
            and int(entries[key]["seq"]) == int(index["next_seq"]) - 1
        ):
            return
        info = entries.setdefault(key, {"bytes": 0, "seq": 0})
        if bytes_delta is not None:
            info["bytes"] = int(bytes_delta) if absolute else info["bytes"] + int(bytes_delta)
        info["seq"] = int(index["next_seq"])
        index["next_seq"] = int(index["next_seq"]) + 1
        self._save_index(index)

    def _evict(self, protect: Optional[set] = None) -> list[str]:
        """Remove least-recently-used entries until the store fits."""
        protect = protect or set()
        index = self._load_index()
        evicted: list[str] = []
        total = sum(int(e["bytes"]) for e in index["entries"].values())
        victims = sorted(index["entries"].items(), key=lambda kv: kv[1]["seq"])
        for key, info in victims:
            if total <= self.max_bytes:
                break
            if key in protect:
                continue
            self._remove_entry(key)
            total -= int(info["bytes"])
            evicted.append(key)
        # ``max_bytes`` is an invariant, not a hint: when the protected
        # (just-stored) entry alone exceeds the budget it goes too, and the
        # caller serves the freshly built graph without a backing entry.
        if total > self.max_bytes:
            for key, info in victims:
                if total <= self.max_bytes:
                    break
                if key not in evicted:
                    self._remove_entry(key)
                    total -= int(info["bytes"])
                    evicted.append(key)
        return evicted

    def _remove_entry(self, key: str) -> None:
        shutil.rmtree(self._entry_dir(key), ignore_errors=True)
        index = self._load_index()
        if key in index["entries"]:
            del index["entries"][key]
            self._save_index(index)


def _read_graph(entry: Path, meta: dict) -> BipartiteCSR:
    """The graph of the entry at ``entry``, over memory-mapped arrays.

    Raises :class:`CacheCorruptionError` if an array is missing, unreadable,
    or sized or shaped unlike ``meta``. The CSR is built with
    ``validate=False``: a full check would read every page.
    """
    arrays = {}
    for name in PREPARED_ARRAYS:
        info = meta["arrays"].get(name)
        path = entry / f"{name}.npy"
        if info is None or not path.is_file():
            raise CacheCorruptionError(f"{name}.npy missing from entry")
        if path.stat().st_size != int(info["bytes"]):
            raise CacheCorruptionError(
                f"{name}.npy truncated or resized "
                f"({path.stat().st_size} != {info['bytes']} bytes)"
            )
        try:
            arrays[name] = np.load(path, mmap_mode="r", allow_pickle=False)
        except Exception as exc:  # noqa: BLE001 - bad npy header
            raise CacheCorruptionError(f"{name}.npy unreadable: {exc}") from exc
    n_x, n_y, nnz = int(meta["n_x"]), int(meta["n_y"]), int(meta["nnz"])
    if (
        arrays["x_ptr"].shape != (n_x + 1,)
        or arrays["y_ptr"].shape != (n_y + 1,)
        or arrays["x_adj"].shape != (nnz,)
        or arrays["y_adj"].shape != (nnz,)
        or arrays["deg_x"].shape != (n_x,)
        or arrays["deg_y"].shape != (n_y,)
    ):
        raise CacheCorruptionError("array shapes disagree with meta.json")
    graph = BipartiteCSR(
        n_x, n_y,
        arrays["x_ptr"], arrays["x_adj"],
        arrays["y_ptr"], arrays["y_adj"],
        validate=False,
    )
    graph._deg_x = arrays["deg_x"]
    graph._deg_y = arrays["deg_y"]
    return graph


def _read_warm_start(path: Path, n_x: int, n_y: int) -> Matching:
    """The warm start stored at ``path`` for an ``n_x`` by ``n_y`` graph.

    Raises :class:`CacheCorruptionError` unless the file loads as one
    ``int64`` array of ``mate_x ++ mate_y`` followed by the CRC-32 of
    those mates, the CRC matches and the mates are consistent. The load is
    a plain read, not a memory map: the engines flip the mates in place.
    """
    try:
        stored = np.load(path, allow_pickle=False)
    except Exception as exc:  # noqa: BLE001 - bad npy header or body
        raise CacheCorruptionError(f"{path.name} unreadable: {exc}") from exc
    if stored.dtype != np.int64 or stored.shape != (n_x + n_y + 1,):
        raise CacheCorruptionError(
            f"{path.name} does not fit the graph ({stored.dtype}{list(stored.shape)}, "
            f"expected int64[{n_x + n_y + 1}])"
        )
    mates = stored[:-1]
    if zlib.crc32(mates) != stored[-1]:
        raise CacheCorruptionError(f"{path.name} fails its CRC-32")
    matching = Matching(n_x, n_y, mates[:n_x], mates[n_x:])
    if not matching.is_consistent():
        raise CacheCorruptionError(f"{path.name} holds inconsistent mates")
    return matching


def _write_warm_start(path: Path, matching: Matching) -> None:
    """Write ``mate_x ++ mate_y ++ crc32`` to ``path``; temp file + rename,
    so atomic."""
    mates = np.concatenate([matching.mate_x, matching.mate_y])
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            np.save(fh, np.append(mates, zlib.crc32(mates)))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
