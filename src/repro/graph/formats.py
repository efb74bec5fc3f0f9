"""Graph file formats and the one table that reads and writes them all.

:data:`GRAPH_FORMATS` maps each format name to its ``(reader, writer)``
pair; ``repro convert`` writes through it and every CLI graph operand is
read through :func:`read_graph`.

* **text** — ``u v`` per line (:mod:`repro.graph.edgelist`); the default
  for any suffix not listed below.
* **rgr** (``.rgr``) — the checksummed binary CSR image
  (:mod:`repro.persistence.graph_file`): loads with no per-edge Python,
  the analogue of the paper's offline "binary adjacency list" conversion.
* **metis** (``.metis``, ``.graph``) — the classic partitioner format: a
  header line ``n m`` then one line per vertex listing its (1-based)
  neighbours. Widely produced by graph toolchains.
* **compressed** (``.cgr``) — a delta + varint encoding of the canonical
  edge list. Edges are lexicographically sorted, so consecutive rows
  share prefixes; the encoding stores ``(Δu, v − u)`` per edge with
  LEB128 varints, typically 3-6× smaller than 16 bytes per edge.

The two binary images carry a magic number, so :func:`graph_format`
recognises them under any name; METIS and text share a character set,
so METIS is told apart by its suffix.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import List, Tuple, Union

import numpy as np

from ..errors import GraphFormatError
# The .rgr functions live in repro.persistence.graph_file; re-exported here.
from ..persistence.graph_file import (  # noqa: F401
    RGR_MAGIC,
    is_rgr,
    read_rgr,
    write_rgr,
)
from .edgelist import read_text_edgelist, write_text_edgelist
from .memgraph import Graph

PathLike = Union[str, Path]

_CMAGIC = 0x5A545253  # "SRTZ"
_CHEADER = struct.Struct("<IQQ")


# --------------------------------------------------------------------- #
# METIS
# --------------------------------------------------------------------- #


def write_metis(graph: Graph, path: PathLike) -> None:
    """Write *graph* in METIS format (1-based adjacency lines)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{graph.n} {graph.m}\n")
        for v in range(graph.n):
            neighbours = " ".join(str(int(u) + 1) for u in graph.neighbors(v))
            handle.write(neighbours + "\n")


def read_metis(path: PathLike) -> Graph:
    """Read a METIS file; validates the header's vertex/edge counts."""
    with open(path, "r", encoding="utf-8") as handle:
        raw = [
            line.rstrip("\n")
            for line in handle
            if not line.lstrip().startswith("%")
        ]
    if not raw:
        raise GraphFormatError(f"{path}: empty METIS file")
    header = raw[0].split()
    if len(header) < 2:
        raise GraphFormatError(f"{path}: METIS header needs 'n m'")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise GraphFormatError(f"{path}: non-integer METIS header") from exc
    if len(raw) - 1 != n:
        raise GraphFormatError(
            f"{path}: header declares {n} vertices but file has {len(raw) - 1} "
            "adjacency lines"
        )
    edges: List[Tuple[int, int]] = []
    for v, line in enumerate(raw[1:]):
        for token in line.split():
            try:
                u = int(token) - 1
            except ValueError as exc:
                raise GraphFormatError(
                    f"{path}: non-integer neighbour {token!r} on vertex {v + 1}"
                ) from exc
            if u < 0 or u >= n:
                raise GraphFormatError(
                    f"{path}: neighbour {u + 1} out of range on vertex {v + 1}"
                )
            if u != v:
                edges.append((v, u))
    graph = Graph.from_edges(edges, n=n)
    if graph.m != m:
        raise GraphFormatError(
            f"{path}: header declares {m} edges but adjacency encodes {graph.m}"
        )
    return graph


# --------------------------------------------------------------------- #
# compressed binary (delta + varint)
# --------------------------------------------------------------------- #


def _encode_varint(value: int, out: bytearray) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _decode_varint(data: bytes, offset: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise GraphFormatError("truncated varint in compressed graph")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 63:
            raise GraphFormatError("varint overflow in compressed graph")


def compress_graph(graph: Graph) -> bytes:
    """Encode *graph* as delta+varint bytes (see module docstring)."""
    payload = bytearray()
    payload += _CHEADER.pack(_CMAGIC, graph.n, graph.m)
    previous_u = 0
    for u, v in graph.edges:
        u, v = int(u), int(v)
        _encode_varint(u - previous_u, payload)
        _encode_varint(v - u, payload)
        previous_u = u
    return bytes(payload)


def decompress_graph(payload: bytes) -> Graph:
    """Inverse of :func:`compress_graph`."""
    if len(payload) < _CHEADER.size:
        raise GraphFormatError("compressed payload shorter than header")
    magic, n, m = _CHEADER.unpack(payload[: _CHEADER.size])
    if magic != _CMAGIC:
        raise GraphFormatError(f"bad compressed magic 0x{magic:08x}")
    edges = np.empty((m, 2), dtype=np.int64)
    offset = _CHEADER.size
    u = 0
    for row in range(m):
        delta_u, offset = _decode_varint(payload, offset)
        gap, offset = _decode_varint(payload, offset)
        u += delta_u
        edges[row, 0] = u
        edges[row, 1] = u + gap
    return Graph(n, edges)


def write_compressed(graph: Graph, path: PathLike) -> int:
    """Write the compressed image; returns the byte size written."""
    payload = compress_graph(graph)
    with open(path, "wb") as handle:
        handle.write(payload)
    return len(payload)


def read_compressed(path: PathLike) -> Graph:
    """Read a graph written by :func:`write_compressed`."""
    with open(path, "rb") as handle:
        return decompress_graph(handle.read())


# --------------------------------------------------------------------- #
# the format table
# --------------------------------------------------------------------- #

#: Format name -> ``(reader(path) -> Graph, writer(graph, path))``.
GRAPH_FORMATS = {
    "text": (read_text_edgelist, write_text_edgelist),
    "rgr": (read_rgr, write_rgr),
    "metis": (read_metis, write_metis),
    "compressed": (read_compressed, write_compressed),
}

_SUFFIX_FORMATS = {
    ".rgr": "rgr",
    ".metis": "metis",
    ".graph": "metis",
    ".cgr": "compressed",
}

_MAGIC_FORMATS = {RGR_MAGIC: "rgr", struct.pack("<I", _CMAGIC): "compressed"}


def format_for_suffix(path: PathLike) -> str:
    """The format ``repro convert`` writes to *path*, by its suffix."""
    return _SUFFIX_FORMATS.get(Path(path).suffix.lower(), "text")


def graph_format(path: PathLike) -> str:
    """The format of the existing file *path*: a binary image's magic
    first, then METIS by suffix, else text."""
    with open(path, "rb") as handle:
        head = handle.read(4)
    if head in _MAGIC_FORMATS:
        return _MAGIC_FORMATS[head]
    return "metis" if format_for_suffix(path) == "metis" else "text"


def read_graph(path: PathLike) -> Graph:
    """Read a graph file in whichever format :func:`graph_format` finds."""
    return GRAPH_FORMATS[graph_format(path)][0](path)
