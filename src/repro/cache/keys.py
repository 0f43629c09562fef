"""Content-addressed cache keys.

A cache key is the SHA-256 of everything that determines the prepared
graph bit-for-bit: the raw input (file bytes, or the canonical parameter
encoding of a deterministic generator spec), the input format, and the
builder version. Any change to the ingest pipeline that alters what gets
materialised must bump :data:`BUILDER_VERSION`; old entries then simply
stop being addressed (and age out via LRU eviction) instead of being
served stale.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Mapping, Union

BUILDER_VERSION = 3
"""Version of the graph-preparation pipeline baked into every key.

Bump when the prepared representation changes (CSR layout, degree arrays,
warm-start semantics or file format) so previously cached entries are never
reused. The cached ``ks_<seed>.npy`` warm starts are
:func:`repro.matching.karp_sipser_parallel.suite_warm_start` matchings;
``tests/integration/test_golden_regression.py`` pins one by SHA-256, so a
change that moves them fails there before it can serve stale entries.
Version 2 stores them as one raw ``int64`` array of ``mate_x ++ mate_y``
and the CRC-32 of those mates, instead of a compressed ``ks_<seed>.npz``,
so no reader of the old files is kept. Version 3 stores the CSR as one
``graph.npy`` (``x_ptr ++ x_adj ++ y_ptr ++ y_adj``) instead of six
per-array files with the degree vectors, and keeps no ``index.json``.
"""

_CHUNK = 1 << 20


def _digest(parts: list[bytes]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
        h.update(b"\x00")
    return h.hexdigest()


def spec_key(kind: str, name: str, params: Mapping[str, Any]) -> str:
    """Key for a deterministic generator spec (suite or bench graph).

    The generator parameters *are* the raw input: the builders are pure
    functions of them, so hashing the canonical JSON encoding of the spec
    is content addressing one level up from the bytes.
    """
    canon = json.dumps(dict(params), sort_keys=True, separators=(",", ":"))
    return _digest(
        [
            b"spec",
            kind.encode("utf-8"),
            name.encode("utf-8"),
            canon.encode("utf-8"),
            f"builder=v{BUILDER_VERSION}".encode("utf-8"),
        ]
    )


def file_key(path: Union[str, Path], fmt: str) -> str:
    """Key for an on-disk graph file: raw bytes + format + builder version.

    The format participates because one byte stream parses differently
    under different readers (e.g. a ``.txt`` edge list read as SNAP vs
    DIMACS), and the cache must never conflate those graphs.
    """
    h = hashlib.sha256()
    h.update(b"file\x00")
    h.update(fmt.encode("utf-8"))
    h.update(b"\x00")
    h.update(f"builder=v{BUILDER_VERSION}".encode("utf-8"))
    h.update(b"\x00")
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(_CHUNK)
            if not chunk:
                break
            h.update(chunk)
    return h.hexdigest()


def hash_file(path: Union[str, Path]) -> str:
    """Streaming SHA-256 of a file's bytes (entry integrity checksums)."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(_CHUNK)
            if not chunk:
                break
            h.update(chunk)
    return h.hexdigest()
