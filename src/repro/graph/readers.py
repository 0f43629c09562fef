"""Readers for common public graph-exchange formats.

The paper's instances come from the UF sparse matrix collection
(MatrixMarket, see :mod:`repro.graph.io`); the same *kinds* of graphs are
also distributed as SNAP edge lists (wikipedia, web-Google, cit-Patents,
amazon0312 are all SNAP datasets) and DIMACS files (road networks). These
readers let users point the library at those files directly:

* :func:`read_snap_edgelist` — whitespace-separated ``u v`` pairs, ``#``
  comments, arbitrary (sparse) vertex ids; directed edges are read as
  row->column entries of the biadjacency matrix;
* :func:`read_dimacs` — the DIMACS ``p``/``a``/``e`` format used by the
  road-network challenge files.

:func:`read_graph_file` picks the reader by format name or file suffix;
the CLI, the batch service and the graph cache all load files through it.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple, Optional, TextIO, Tuple, Union

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.builder import _from_edge_arrays
from repro.graph.csr import INDEX_DTYPE, BipartiteCSR
from repro.graph.io import read_matrix_market
from repro.graph.serialize import load_graph


class LabelledGraph(NamedTuple):
    """A compacted bipartite graph plus its original vertex labels.

    ``x_ids[i]`` / ``y_ids[j]`` are the file's ids for compacted vertex
    ``i`` of X / ``j`` of Y, so a matched pair ``(x, mate_x[x])`` maps back
    to the on-disk edge ``(x_ids[x], y_ids[mate_x[x]])``.
    """

    graph: BipartiteCSR
    x_ids: np.ndarray
    y_ids: np.ndarray


def read_snap_edgelist(
    source: Union[str, Path, TextIO],
    *,
    comment: str = "#",
    return_labels: bool = False,
) -> Union[BipartiteCSR, LabelledGraph]:
    """Read a SNAP-style edge list as a bipartite graph.

    Each non-comment line holds a source and a target id (any further
    columns are ignored). Ids may be sparse and unordered; both sides are
    compacted independently, so a directed graph's rows become X and its
    targets Y — the standard bipartite view of a nonsymmetric matrix.

    With ``return_labels=True`` the original ids survive compaction: the
    result is a :class:`LabelledGraph` carrying the per-side label arrays,
    so matchings computed on the compacted graph can be reported in the
    file's own vertex ids (``repro-match run --file`` does exactly that).
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return read_snap_edgelist(fh, comment=comment, return_labels=return_labels)
    src_ids: list[int] = []
    dst_ids: list[int] = []
    for lineno, line in enumerate(source, 1):
        stripped = line.strip()
        if not stripped or stripped.startswith(comment):
            continue
        parts = stripped.split()
        if len(parts) < 2:
            raise GraphFormatError(f"line {lineno}: expected 'u v', got {stripped!r}")
        try:
            src_ids.append(int(parts[0]))
            dst_ids.append(int(parts[1]))
        except ValueError as exc:
            raise GraphFormatError(f"line {lineno}: non-integer vertex id") from exc
    if not src_ids:
        graph = _from_edge_arrays(
            0, 0, np.empty(0, dtype=INDEX_DTYPE), np.empty(0, dtype=INDEX_DTYPE),
            validate=False,
        )
        empty_ids = np.empty(0, dtype=np.int64)
        return LabelledGraph(graph, empty_ids, empty_ids) if return_labels else graph
    src = np.asarray(src_ids, dtype=np.int64)
    dst = np.asarray(dst_ids, dtype=np.int64)
    if src.min() < 0 or dst.min() < 0:
        raise GraphFormatError("negative vertex ids are not supported")
    x_vals, xs = np.unique(src, return_inverse=True)
    y_vals, ys = np.unique(dst, return_inverse=True)
    graph = _from_edge_arrays(
        int(x_vals.size), int(y_vals.size),
        xs.astype(INDEX_DTYPE), ys.astype(INDEX_DTYPE), validate=False,
    )
    if return_labels:
        return LabelledGraph(graph, x_vals, y_vals)
    return graph


def read_dimacs(source: Union[str, Path, TextIO]) -> BipartiteCSR:
    """Read a DIMACS graph (``p sp|edge n m`` header, ``a``/``e`` edges).

    Vertices are 1-based in the file. The (possibly directed) graph is
    returned as its bipartite adjacency view: X = sources, Y = targets,
    both sized ``n``.

    Node-descriptor lines (``n <id> s|t`` in the max-flow format, ``n <id>``
    in the assignment format) are legal records that carry no adjacency
    information; they are validated for range and skipped.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return read_dimacs(fh)
    n = None
    declared_m = None
    xs: list[int] = []
    ys: list[int] = []
    for lineno, line in enumerate(source, 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        parts = stripped.split()
        if parts[0] == "p":
            if len(parts) < 4:
                raise GraphFormatError(f"line {lineno}: malformed problem line")
            try:
                n = int(parts[-2])
                declared_m = int(parts[-1])
            except ValueError as exc:
                raise GraphFormatError(f"line {lineno}: malformed problem line") from exc
        elif parts[0] in ("a", "e"):
            if n is None:
                raise GraphFormatError(f"line {lineno}: edge before problem line")
            if len(parts) < 3:
                raise GraphFormatError(f"line {lineno}: malformed edge line")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError as exc:
                raise GraphFormatError(f"line {lineno}: non-integer endpoint") from exc
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphFormatError(f"line {lineno}: endpoint out of range 1..{n}")
            xs.append(u - 1)
            ys.append(v - 1)
        elif parts[0] == "n":
            # Max-flow/assignment node descriptors designate sources and
            # sinks; matching only needs the adjacency, so validate + skip.
            if n is None:
                raise GraphFormatError(f"line {lineno}: node descriptor before problem line")
            if len(parts) < 2:
                raise GraphFormatError(f"line {lineno}: malformed node descriptor")
            try:
                node_id = int(parts[1])
            except ValueError as exc:
                raise GraphFormatError(f"line {lineno}: non-integer node id") from exc
            if not 1 <= node_id <= n:
                raise GraphFormatError(f"line {lineno}: node id out of range 1..{n}")
        else:
            raise GraphFormatError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise GraphFormatError("missing problem ('p') line")
    if declared_m is not None and len(xs) != declared_m:
        raise GraphFormatError(f"declared {declared_m} edges, found {len(xs)}")
    return _from_edge_arrays(
        n, n,
        np.asarray(xs, dtype=INDEX_DTYPE), np.asarray(ys, dtype=INDEX_DTYPE),
        validate=False,
    )


_READERS = {
    "mtx": read_matrix_market,
    "snap": lambda path: read_snap_edgelist(path, return_labels=True),
    "dimacs": read_dimacs,
    "npz": load_graph,
}
GRAPH_FORMATS = tuple(_READERS)
"""Format names :func:`read_graph_file` accepts, besides ``auto``."""

FORMAT_BY_SUFFIX = {
    "mtx": "mtx", "gr": "dimacs", "dimacs": "dimacs", "max": "dimacs",
    "txt": "snap", "snap": "snap", "edges": "snap", "npz": "npz",
}
"""What ``auto`` reads a file as, by suffix; any other suffix is MatrixMarket."""


def resolve_format(path: Union[str, Path], fmt: str = "auto") -> str:
    """The concrete format name for ``fmt`` (``auto`` goes by the suffix)."""
    if fmt == "auto":
        return FORMAT_BY_SUFFIX.get(Path(path).suffix.lstrip(".").lower(), "mtx")
    if fmt not in _READERS:
        raise GraphFormatError(f"unknown graph format {fmt!r}; known: {sorted(_READERS)}")
    return fmt


def read_graph_file(
    path: Union[str, Path], fmt: str = "auto"
) -> Tuple[BipartiteCSR, Optional[LabelledGraph]]:
    """Read a graph file as ``(graph, labels)``.

    ``labels`` is the :class:`LabelledGraph` of a SNAP edge list, whose
    sparse ids are compacted, and ``None`` for every other format.
    """
    loaded = _READERS[resolve_format(path, fmt)](path)
    if isinstance(loaded, LabelledGraph):
        return loaded.graph, loaded
    return loaded, None
