"""Binary graph and matching files, and the atomic rename that writes them.

Two formats live here:

* **Graphs as ``.npz``** (:func:`save_graph` / :func:`load_graph`), the
  fast path beside MatrixMarket (``repro.graph.io``) for handing suite
  graphs between runs. The file carries a format tag and version so a
  foreign ``.npz`` fails loudly instead of mis-deserialising.
* **Raw ``int64`` ``.npy`` arrays** (:func:`write_npy` / :func:`check_npy`):
  the graph cache's ``graph.npy``, and every *checksummed* array
  (:func:`write_checked` / :func:`read_checked`): one array of
  ``values ++ crc32(values)``. A stored matching
  (:func:`write_matching` / :func:`read_matching`) is the checksummed
  ``mate_x ++ mate_y``; the cache's warm starts and the batch service's
  checkpoints both use it, and the cache keeps a SNAP file's original ids
  the same way. A read compares the header byte for
  byte with the one :func:`write_npy` writes instead of calling
  ``np.load``: numpy parses a header with ``ast.literal_eval``, and on
  CPython 3.11.7 concurrent ``ast`` use from several threads can raise
  ``SystemError``.

Every file is written through :func:`replacing`: a temp file unique to
the call, renamed into place. A crash mid-write leaves the old file or
the new one, never a torn half, and concurrent writers of one path never
share a temp file.
"""

from __future__ import annotations

import io
import os
import tempfile
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator, Union

import numpy as np

from repro.errors import CacheCorruptionError, GraphFormatError
from repro.graph.csr import BipartiteCSR
from repro.matching.base import Matching

_FORMAT = "repro-bipartite-csr"
_VERSION = 1


@contextmanager
def replacing(path: Path) -> Iterator[Path]:
    """A temp path beside ``path``, unique to the call, that is renamed
    onto ``path`` when the block exits cleanly and removed otherwise."""
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=path.parent)
    os.close(fd)
    try:
        yield Path(tmp)
        os.replace(tmp, path)
    finally:
        Path(tmp).unlink(missing_ok=True)


def save_graph(graph: BipartiteCSR, path: Union[str, Path]) -> None:
    """Write a graph to ``path`` (``.npz``, appended if missing, as numpy
    does); atomic against crashes."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    with replacing(path) as tmp, open(tmp, "wb") as fh:
        np.savez_compressed(
            fh,
            format=np.array(_FORMAT),
            version=np.array(_VERSION),
            n_x=np.array(graph.n_x),
            n_y=np.array(graph.n_y),
            x_ptr=graph.x_ptr,
            x_adj=graph.x_adj,
            y_ptr=graph.y_ptr,
            y_adj=graph.y_adj,
        )


def load_graph(path: Union[str, Path]) -> BipartiteCSR:
    """Read a graph written by :func:`save_graph`."""
    with np.load(path, allow_pickle=False) as data:
        if "format" not in data or str(data["format"]) != _FORMAT:
            raise GraphFormatError(f"{path}: not a {_FORMAT} file")
        if int(data["version"]) > _VERSION:
            raise GraphFormatError(
                f"{path}: written by a newer version ({int(data['version'])} > {_VERSION})"
            )
        return BipartiteCSR(
            int(data["n_x"]),
            int(data["n_y"]),
            data["x_ptr"],
            data["x_adj"],
            data["y_ptr"],
            data["y_adj"],
            validate=False,
        )


def _npy_header(length: int) -> bytes:
    """The ``.npy`` header of a 1-D little-endian ``int64`` array of
    ``length`` values: what :func:`write_npy` writes, and expects on read."""
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buf, {"descr": "<i8", "fortran_order": False, "shape": (length,)}
    )
    return buf.getvalue()


def write_npy(path: Path, parts: tuple[np.ndarray, ...]) -> None:
    """Write the concatenation of the ``int64`` arrays ``parts`` to
    ``path`` as one ``.npy`` array, without concatenating in memory."""
    with open(path, "wb") as fh:
        fh.write(_npy_header(sum(part.shape[0] for part in parts)))
        for part in parts:
            fh.write(np.ascontiguousarray(part, dtype="<i8").data)


def check_npy(path: Path, fh: BinaryIO, length: int) -> int:
    """Raise :class:`CacheCorruptionError` unless the file ``fh``, open at
    its start, is exactly a ``.npy`` ``int64[length]`` array; returns the
    data offset, where ``fh`` is left."""
    header = _npy_header(length)
    if (
        os.fstat(fh.fileno()).st_size != len(header) + 8 * length
        or fh.read(len(header)) != header
    ):
        raise CacheCorruptionError(f"{path.name} is not the int64[{length}] array expected")
    return len(header)


def read_checked(path: Path, length: int) -> np.ndarray:
    """The ``length`` ``int64`` values stored at ``path`` by
    :func:`write_checked`, as a fresh writable array.

    Raises :class:`CacheCorruptionError` unless the file is one ``int64``
    array of the values followed by their CRC-32 and the CRC matches, and
    ``OSError`` if it cannot be read.
    """
    with open(path, "rb") as fh:
        check_npy(path, fh, length + 1)
        stored = np.fromfile(fh, dtype="<i8", count=length + 1)
    values = stored[:-1]
    if zlib.crc32(values) != stored[-1]:
        raise CacheCorruptionError(f"{path.name} fails its CRC-32")
    return values


def write_checked(path: Path, values: np.ndarray) -> None:
    """Write ``values ++ crc32(values)`` to ``path`` through
    :func:`replacing`, so atomic."""
    values = np.ascontiguousarray(values, dtype="<i8")
    with replacing(path) as tmp:
        write_npy(tmp, (values, np.array([zlib.crc32(values)])))


def read_matching(path: Path, n_x: int, n_y: int) -> Matching:
    """The matching stored at ``path`` for an ``n_x`` by ``n_y`` graph.

    Raises :class:`CacheCorruptionError` unless the file holds the
    checksummed ``mate_x ++ mate_y`` (:func:`read_checked`) and the mates
    are consistent, and ``OSError`` if it cannot be read. The load is a
    plain read, not a memory map: the engines flip the mates in place.
    """
    mates = read_checked(path, n_x + n_y)
    matching = Matching(n_x, n_y, mates[:n_x], mates[n_x:])
    if not matching.is_consistent():
        raise CacheCorruptionError(f"{path.name} holds inconsistent mates")
    return matching


def write_matching(path: Path, matching: Matching) -> None:
    """Write the checksummed ``mate_x ++ mate_y`` to ``path``."""
    write_checked(path, np.concatenate([matching.mate_x, matching.mate_y]))
