"""Content-addressed graph-preparation cache.

Building an experiment graph — generator run or file parse, CSR
construction in both orientations, Karp-Sipser warm start — costs far
more than matching on it at bench scales. This package makes preparation
a content-addressed, memory-mapped load: entries are keyed by SHA-256 of
the raw input + format + builder version (:mod:`repro.cache.keys`) and
stored one directory per entry, holding ``meta.json``, one ``graph.npy``
and a ``ks_<seed>.npy`` per warm start (:mod:`repro.cache.store`). The
file system is the only index: ``meta.json``'s mtime orders the LRU
eviction, and concurrent callers in threads or processes share a store
safely.

Wired into ``repro-match run/trace/batch/bench-kernels`` via
``--cache-dir`` and managed with ``repro-match cache {warm,ls,clear,verify}``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.cache.keys": ("BUILDER_VERSION", "file_key", "spec_key"),
    "repro.cache.prepare": ("PreparedGraph",),
    "repro.cache.store": ("DEFAULT_MAX_BYTES", "GraphCache"),
})

__all__ = [
    "BUILDER_VERSION",
    "DEFAULT_MAX_BYTES",
    "GraphCache",
    "PreparedGraph",
    "file_key",
    "spec_key",
]
