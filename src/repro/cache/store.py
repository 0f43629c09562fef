"""Content-addressed on-disk store of prepared graphs with LRU eviction.

Layout (one directory per entry, fanned out by key prefix; the file
system is the only index)::

    <root>/<key[:2]>/<key>/meta.json       provenance, n_x/n_y/nnz, SHA-256 and
                                           byte count of graph.npy; its mtime
                                           is the entry's recency
    <root>/<key[:2]>/<key>/graph.npy       one int64 array,
                                           x_ptr ++ x_adj ++ y_ptr ++ y_adj
    <root>/<key[:2]>/<key>/ks_<seed>.npy   Karp-Sipser warm start per seed (one
                                           int64 array, mate_x ++ mate_y ++ crc32)
    <root>/<key[:2]>/<key>/ids.npy         SNAP entries only: the file's original
                                           ids, x_ids ++ y_ids ++ crc32

Design points:

* **Memory-mapped loads.** ``graph.npy`` is memory-mapped once and
  sliced into the four CSR views; the degree vectors are the graph's own
  lazy ``deg_x``/``deg_y``. A warm ``run`` touches only the pages the
  traversal actually reads. Load-time integrity checks are therefore
  *structural* (file size and header) — full SHA-256 verification would
  read every byte and defeat the mapping, so it lives in the explicit
  :meth:`GraphCache.verify` pass (``repro-match cache verify``).
* **Headers compared, not parsed.** Both files are plain ``.npy`` arrays
  in the format of :mod:`repro.graph.serialize`, whose reads check the
  header byte for byte instead of calling ``np.load``.
* **Raw warm starts.** ``ks_<seed>.npy`` is read whole into a fresh
  writable array (the engines flip mates in place) and served only if its
  shape fits, its trailing CRC-32 matches the mates and the mates are
  consistent; anything else is recomputed. The CRC turns damage that kept
  the shape into a miss too. :meth:`GraphCache.verify` also checks that
  every warm start is a valid matching of its entry's graph.
* **SNAP ids kept.** A SNAP edge list's sparse ids are compacted on read;
  its entry stores them in ``ids.npy`` (same checksummed format), so a hit
  can still report pairs in the file's own ids. A SNAP entry whose
  ``ids.npy`` is missing or fails its checks is corrupt, so a miss.
* **Atomicity and concurrent callers.** Entries are built in a temp
  directory and warm starts in a temp file
  (:func:`~repro.graph.serialize.replacing`), each unique to the call,
  then renamed into place. A store that finds its
  entry already in place keeps that entry: keys are content-addressed, so
  its bytes are the same. Any ``OSError`` while reading an entry (another
  caller may have evicted it mid-lookup) is a miss.
* **Corruption = miss.** Any integrity failure during lookup deletes the
  entry and reports a miss; the caller rebuilds from source and re-stores.
  An entry written by another :data:`~repro.cache.keys.BUILDER_VERSION`
  is never addressed, so it only ages out; ``verify`` names it.
* **LRU cap.** ``max_bytes`` bounds the store. Every hit, store and
  warm-start write sets the entry's ``meta.json`` mtime to the current
  time; eviction scans the entry directories, sizes them with ``stat``
  and removes the least recently used until the total fits.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Union

import numpy as np

from repro.cache.keys import BUILDER_VERSION, file_key, hash_file, spec_key
from repro.cache.prepare import PreparedGraph, build_suite_graph, warm_start_matching
from repro.errors import CacheCorruptionError
from repro.graph.csr import BipartiteCSR
from repro.graph.readers import LabelledGraph, read_graph_file, resolve_format
from repro.graph.serialize import (
    check_npy,
    read_checked,
    read_matching,
    write_checked,
    write_matching,
    write_npy,
)
from repro.matching.base import Matching
from repro.matching.verify import is_valid_matching

DEFAULT_MAX_BYTES = 512 * 1024 * 1024
_GRAPH_FILE = "graph.npy"
_IDS_FILE = "ids.npy"
_META_FIELDS = frozenset(
    {"key", "builder_version", "n_x", "n_y", "nnz", "sha256", "bytes"}
)


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
        """Prepared on-disk graph, keyed by the file's raw bytes + format.
        A SNAP file's original ids come back as ``labels``."""
        # The resolved format is part of the key: two byte-identical files
        # read by different parsers get distinct entries.
        fmt = resolve_format(path, fmt)
        key = file_key(path, fmt)
        return self._prepare(
            key,
            lambda: read_graph_file(path, fmt),
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
            key, lambda: (builder(), None), kind=kind, fmt="generator",
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
        in place), so sharing an entry across runs is safe. A file that is
        missing, does not load, does not fit the graph or holds
        inconsistent mates is recomputed and rewritten; if the entry was
        evicted meanwhile, the recomputed matching is served unstored.
        """
        graph = prepared.graph
        entry = prepared.entry_dir
        if entry is None:
            return warm_start_matching(graph, seed)
        path = entry / f"ks_{int(seed)}.npy"
        try:
            return read_matching(path, graph.n_x, graph.n_y)
        except (CacheCorruptionError, OSError):
            pass  # missing or corrupt warm start: rebuild it
        matching = warm_start_matching(graph, seed)
        try:
            write_matching(path, matching)
            _touch(entry)
        except OSError:
            return matching
        self._evict(protect={prepared.key})
        return matching

    # ------------------------------------------------------------------ #
    # store inspection / maintenance (the `repro-match cache` verbs)
    # ------------------------------------------------------------------ #

    @property
    def total_bytes(self) -> int:
        return sum(size for _, _, size in self._scan())

    def entries(self) -> list[dict]:
        """All entries, least-recently-used first."""
        out = []
        for _, key, size in self._scan():
            row: dict = {"key": key, "bytes": size}
            try:
                meta = self._read_meta(key)
                row.update(
                    kind=meta.get("kind", "?"),
                    source=meta.get("source", ""),
                    n_x=meta["n_x"],
                    n_y=meta["n_y"],
                    nnz=meta["nnz"],
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
        rows = self._scan()
        for _, key, _ in rows:
            self._remove_entry(key)
        return len(rows)

    def verify(self) -> list[tuple[str, str]]:
        """Full integrity pass over every entry.

        SHA-256 of ``graph.npy`` against meta.json, then every cached warm
        start: it must load, fit the entry's shape, and be a consistent,
        valid matching of the entry's graph. Returns ``(key, problem)``
        pairs; an empty list means the store is intact. This is the deep
        counterpart of the structural checks lookups perform.
        """
        problems: list[tuple[str, str]] = []
        for _, key, _ in self._scan():
            entry = self._entry_dir(key)
            try:
                meta = self._read_meta(key)
                digest = hash_file(entry / _GRAPH_FILE)
                if digest != meta["sha256"]:
                    raise CacheCorruptionError(
                        f"{_GRAPH_FILE} checksum mismatch "
                        f"(stored {meta['sha256'][:12]}, actual {digest[:12]})"
                    )
                _read_labels(entry, meta, None)
                self._verify_warm_starts(entry, meta)
            except (CacheCorruptionError, OSError) as exc:
                problems.append((key, str(exc)))
        return problems

    @staticmethod
    def _verify_warm_starts(entry: Path, meta: dict) -> None:
        """Raise :class:`CacheCorruptionError` unless every ``ks_<seed>.npy``
        of the (checksummed) entry is a valid matching of its graph."""
        paths = sorted(entry.glob("ks_*.npy"))
        if not paths:
            return
        graph = _read_graph(entry / _GRAPH_FILE, meta)
        for path in paths:
            if not is_valid_matching(graph, read_matching(path, graph.n_x, graph.n_y)):
                raise CacheCorruptionError(
                    f"{path.name} is not a valid matching of the entry's graph"
                )

    # ------------------------------------------------------------------ #
    # core prepare path
    # ------------------------------------------------------------------ #

    def _prepare(
        self,
        key: str,
        builder: Callable[[], tuple[BipartiteCSR, Optional[LabelledGraph]]],
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
                graph, labels = builder()
        else:
            graph, labels = builder()
        self._store(key, graph, labels, kind=kind, fmt=fmt, source=source)
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
        return PreparedGraph(graph=graph, key=key, from_cache=False, source=source,
                             labels=labels)

    def _lookup(self, key: str) -> Optional[PreparedGraph]:
        entry = self._entry_dir(key)
        if not entry.is_dir():
            return None
        try:
            meta = self._read_meta(key)
            graph = _read_graph(entry / _GRAPH_FILE, meta)
            labels = _read_labels(entry, meta, graph)
            _touch(entry)
        except (CacheCorruptionError, OSError):
            # Fallback-to-rebuild: a broken entry must never mask the source.
            self._remove_entry(key)
            return None
        return PreparedGraph(
            graph=graph,
            key=key,
            from_cache=True,
            source=str(meta.get("source", "")),
            entry_dir=entry,
            labels=labels,
        )

    def _store(
        self,
        key: str,
        graph: BipartiteCSR,
        labels: Optional[LabelledGraph],
        *,
        kind: str,
        fmt: str,
        source: str,
    ) -> None:
        final = self._entry_dir(key)
        tmp = Path(tempfile.mkdtemp(prefix=f".tmp-{key[:16]}-", dir=self.root))
        try:
            path = tmp / _GRAPH_FILE
            write_npy(path, (graph.x_ptr, graph.x_adj, graph.y_ptr, graph.y_adj))
            if labels is not None:
                write_checked(tmp / _IDS_FILE, np.concatenate([labels.x_ids, labels.y_ids]))
            meta = {
                "key": key,
                "kind": kind,
                "format": fmt,
                "source": source,
                "builder_version": BUILDER_VERSION,
                "n_x": int(graph.n_x),
                "n_y": int(graph.n_y),
                "nnz": int(graph.nnz),
                "sha256": hash_file(path),
                "bytes": path.stat().st_size,
            }
            (tmp / "meta.json").write_text(json.dumps(meta, indent=2), encoding="utf-8")
            final.parent.mkdir(parents=True, exist_ok=True)
            os.rename(tmp, final)
        except OSError:
            shutil.rmtree(tmp, ignore_errors=True)
            if not final.is_dir():
                raise
            # Another caller stored this key first. Keys are content
            # addressed, so its entry holds the same bytes: keep it.
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        try:
            _touch(final)
        except OSError:
            return  # evicted by another caller already: the lookup misses
        self._evict(protect={key})

    # ------------------------------------------------------------------ #
    # entry directories + eviction
    # ------------------------------------------------------------------ #

    def _entry_dir(self, key: str) -> Path:
        return self.root / key[:2] / key

    def _scan(self) -> list[tuple[int, str, int]]:
        """``(recency_ns, key, bytes)`` of every entry, least recently used
        first. An entry without ``meta.json`` sorts oldest."""
        rows = []
        for entry in self.root.glob("??/*"):
            try:
                stats = {p.name: p.stat() for p in entry.iterdir()}
            except OSError:
                continue  # not an entry, or removed meanwhile
            meta = stats.get("meta.json")
            used = meta.st_mtime_ns if meta is not None else 0
            rows.append((used, entry.name, sum(s.st_size for s in stats.values())))
        rows.sort()
        return rows

    def _read_meta(self, key: str) -> dict:
        path = self._entry_dir(key) / "meta.json"
        try:
            meta = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise CacheCorruptionError(f"meta.json unreadable: {exc}") from exc
        if not isinstance(meta, dict):
            raise CacheCorruptionError("meta.json is not an object")
        if meta.get("builder_version") != BUILDER_VERSION:
            raise CacheCorruptionError(
                f"entry written by builder v{meta.get('builder_version', '?')}, "
                f"which this version (v{BUILDER_VERSION}) does not read; "
                "run `repro-match cache clear`"
            )
        if not _META_FIELDS.issubset(meta):
            raise CacheCorruptionError(
                f"meta.json missing fields {sorted(_META_FIELDS - set(meta))}"
            )
        if meta["key"] != key:
            raise CacheCorruptionError(
                f"entry directory/key mismatch ({meta['key'][:12]} != {key[:12]})"
            )
        return meta

    def _evict(self, protect: frozenset | set = frozenset()) -> list[str]:
        """Remove least-recently-used entries until the store fits.

        ``max_bytes`` is an invariant, not a hint: protected (just-stored)
        entries go last, but when one alone exceeds the budget it goes too,
        and the caller serves the freshly built graph without an entry.
        """
        rows = self._scan()
        total = sum(size for _, _, size in rows)
        evicted: list[str] = []
        for _, key, size in sorted(rows, key=lambda row: row[1] in protect):
            if total <= self.max_bytes:
                break
            self._remove_entry(key)
            total -= size
            evicted.append(key)
        return evicted

    def _remove_entry(self, key: str) -> None:
        shutil.rmtree(self._entry_dir(key), ignore_errors=True)


def _touch(entry: Path) -> None:
    """Mark ``entry`` most recently used (its ``meta.json`` mtime)."""
    now = time.time_ns()
    os.utime(entry / "meta.json", ns=(now, now))


def _read_labels(
    entry: Path, meta: dict, graph: Optional[BipartiteCSR]
) -> Optional[LabelledGraph]:
    """A SNAP entry's original ids (``None`` for any other format).

    Raises :class:`CacheCorruptionError` or ``OSError`` when a SNAP entry's
    ``ids.npy`` is missing, misshapen or fails its CRC-32.
    """
    if meta.get("format") != "snap":
        return None
    n_x = int(meta["n_x"])
    ids = read_checked(entry / _IDS_FILE, n_x + int(meta["n_y"]))
    return LabelledGraph(graph, ids[:n_x], ids[n_x:])


def _read_graph(path: Path, meta: dict) -> BipartiteCSR:
    """The graph stored at ``path``, over views of one memory map.

    Raises :class:`CacheCorruptionError` if the file is sized unlike
    ``meta`` or is not the ``int64`` array its shape implies, and
    ``OSError`` if it cannot be read. The CSR is built with
    ``validate=False``: a full check would read every page.
    """
    n_x, n_y, nnz = int(meta["n_x"]), int(meta["n_y"]), int(meta["nnz"])
    length = n_x + 1 + nnz + n_y + 1 + nnz
    with open(path, "rb") as fh:
        if os.fstat(fh.fileno()).st_size != int(meta["bytes"]):
            raise CacheCorruptionError(f"{path.name} truncated or resized")
        offset = check_npy(path, fh, length)
        flat = np.memmap(fh, dtype="<i8", mode="r", offset=offset, shape=(length,))
    x_adj, y_ptr, y_adj = n_x + 1, n_x + 1 + nnz, n_x + n_y + 2 + nnz
    return BipartiteCSR(
        n_x, n_y,
        flat[:x_adj], flat[x_adj:y_ptr], flat[y_ptr:y_adj], flat[y_adj:],
        validate=False,
    )
