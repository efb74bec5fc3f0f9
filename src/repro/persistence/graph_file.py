"""``.rgr`` — the library's binary on-disk graph image (CSR form).

The edge-list formats (:mod:`repro.graph.edgelist`) store the *edge
array*; loading one rebuilds the CSR adjacency with a per-edge Python
loop, which dominates load time on large graphs. The ``.rgr`` image
stores the CSR itself, so loading is three ``np.frombuffer`` casts plus a
vectorized reconstruction of the canonical edge array — no per-edge
Python. This mirrors the paper's preprocessing step ("converted into a
binary adjacency list form"); conversion cost is paid once, offline
(``repro convert``), exactly as the paper excludes it from timings.

Layout (little-endian)::

    header: magic "RGRF" | u32 version | u64 n | u64 m | u32 crc32(body)
    body:   offsets  (n + 1) * i64
            adj      2m * i64   (neighbours, ascending per vertex)
            adj_eids 2m * i64   (edge id at each adjacency slot)

The trailing-CRC-in-header design means a truncated or bit-rotted file is
rejected before any array is trusted; structural validation (monotone
offsets, in-range neighbour/edge ids) guards against well-checksummed but
malformed producers.
"""

from __future__ import annotations

import mmap
import struct
import zlib
from pathlib import Path
from typing import Union

import numpy as np

from ..errors import GraphFileError, GraphFormatError
from ..graph.memgraph import Graph

PathLike = Union[str, Path]

RGR_MAGIC = b"RGRF"
RGR_VERSION = 1
_HEADER = struct.Struct("<4sIQQI")

#: Conventional file extension (the CLI keys dispatch on it).
RGR_EXTENSION = ".rgr"

#: Chunk size of the pre-mapping CRC sweep (mmap slices are bytes copies;
#: chunking bounds the transient allocation on huge images).
_CRC_CHUNK = 1 << 24


def graph_to_rgr_bytes(graph: Graph) -> bytes:
    """Serialise *graph* to the ``.rgr`` image in memory."""
    body = b"".join((
        graph.offsets.astype("<i8").tobytes(),
        graph.adj.astype("<i8").tobytes(),
        graph.adj_eids.astype("<i8").tobytes(),
    ))
    header = _HEADER.pack(
        RGR_MAGIC, RGR_VERSION, graph.n, graph.m, zlib.crc32(body)
    )
    return header + body


def _parse_header(payload, total: int, source: str, error) -> tuple:
    """Validate the fixed header against *total* bytes; returns ``(n, m, crc)``."""
    if total < _HEADER.size:
        raise error(f"{source}: truncated .rgr header")
    magic, version, n, m, crc = _HEADER.unpack_from(payload)
    if magic != RGR_MAGIC:
        raise error(f"{source}: bad .rgr magic {magic!r}")
    if version != RGR_VERSION:
        raise error(f"{source}: unsupported .rgr version {version}")
    expected = 8 * ((n + 1) + 4 * m)
    if total - _HEADER.size != expected:
        raise error(
            f"{source}: .rgr body is {total - _HEADER.size} bytes, "
            f"header implies {expected}"
        )
    return int(n), int(m), crc


def _assemble_graph(offsets, adj, adj_eids, n: int, m: int,
                    source: str, error) -> Graph:
    """Structural validation + Graph assembly shared by both loaders.

    The CSR arrays may be mapped read-only views; validation only reads
    them, and the rebuilt canonical edge array is the single materialised
    product (it is derived data — a permutation of the forward CSR half).
    """
    if offsets[0] != 0 or offsets[-1] != 2 * m or np.any(np.diff(offsets) < 0):
        raise error(f"{source}: .rgr offsets are not a valid CSR")
    if m and (
        adj.min() < 0 or adj.max() >= n
        or adj_eids.min() < 0 or adj_eids.max() >= m
    ):
        raise error(f"{source}: .rgr adjacency ids out of range")
    # Rebuild the canonical edge array from the forward half of the CSR
    # (each edge appears once as (u, v) with v > u at slot adj_eids) and
    # assemble the Graph directly — no per-edge CSR reconstruction.
    owner = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
    forward = adj > owner
    if int(forward.sum()) != m:
        raise error(f"{source}: .rgr adjacency is not symmetric")
    edges = np.empty((m, 2), dtype=np.int64)
    edges[adj_eids[forward], 0] = owner[forward]
    edges[adj_eids[forward], 1] = adj[forward]
    if m and np.any(edges[:-1, 0] * (n + 1) + edges[:-1, 1]
                    >= edges[1:, 0] * (n + 1) + edges[1:, 1]):
        raise error(f"{source}: .rgr edge ids are not canonical")
    return Graph.from_csr(n, edges, offsets, adj, adj_eids)


def graph_from_rgr_bytes(payload: bytes, source: str = "<bytes>") -> Graph:
    """Deserialise a ``.rgr`` image; validates checksum and structure."""
    error = GraphFormatError
    n, m, crc = _parse_header(payload, len(payload), source, error)
    body = payload[_HEADER.size:]
    if zlib.crc32(body) != crc:
        raise error(f"{source}: .rgr checksum mismatch")
    offsets = np.frombuffer(body, dtype="<i8", count=n + 1).astype(np.int64)
    adj = np.frombuffer(
        body, dtype="<i8", count=2 * m, offset=8 * (n + 1)
    ).astype(np.int64)
    adj_eids = np.frombuffer(
        body, dtype="<i8", count=2 * m, offset=8 * (n + 1 + 2 * m)
    ).astype(np.int64)
    return _assemble_graph(offsets, adj, adj_eids, n, m, source, error)


def read_rgr_mapped(path: PathLike) -> Graph:
    """Zero-copy ``.rgr`` load: CSR arrays as read-only ``mmap`` views.

    The returned :class:`~repro.graph.memgraph.Graph` keeps ``offsets``,
    ``adj`` and ``adj_eids`` as views laid directly over the file mapping
    — no full materialisation — so a :class:`~repro.graph.DiskGraph`
    built on the ``mmap`` backend serves gathers straight from the page
    cache, and every serve-tier query against one snapshot shares the
    same single mapping. Safety contract (the corruption-fuzz suite pins
    it): header, length and CRC are validated **before** any mapped view
    is trusted, structural validation runs before the graph escapes, and
    on any failure every view is dropped and the mapping closed — a
    corrupt file raises :class:`~repro.errors.GraphFileError`, never a
    ``BufferError`` or a numpy crash, and can be unlinked immediately
    afterwards even under Windows-like sharing semantics.
    """
    source = str(path)
    error = GraphFileError
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise error(f"{source}: cannot open ({exc})") from exc
    with handle:
        try:
            mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError) as exc:
            # Empty files cannot be mapped; report them as the truncation
            # they are.
            raise error(f"{source}: cannot map .rgr image ({exc})") from exc
    try:
        n, m, crc = _parse_header(mapping[:_HEADER.size], len(mapping),
                                  source, error)
        # CRC the body *before* trusting the mapping. Slicing an mmap
        # yields bytes (a copy), so no buffer export outlives this loop
        # and the mapping can still be closed on mismatch.
        actual = 0
        for start in range(_HEADER.size, len(mapping), _CRC_CHUNK):
            actual = zlib.crc32(mapping[start:start + _CRC_CHUNK], actual)
        if actual != crc:
            raise error(f"{source}: .rgr checksum mismatch")
    except Exception:
        mapping.close()
        raise
    offsets = adj = adj_eids = None
    try:
        offsets = np.frombuffer(
            mapping, dtype="<i8", count=n + 1, offset=_HEADER.size
        )
        adj = np.frombuffer(
            mapping, dtype="<i8", count=2 * m,
            offset=_HEADER.size + 8 * (n + 1),
        )
        adj_eids = np.frombuffer(
            mapping, dtype="<i8", count=2 * m,
            offset=_HEADER.size + 8 * (n + 1 + 2 * m),
        )
        graph = _assemble_graph(offsets, adj, adj_eids, n, m, source, error)
    except BaseException:
        # Release every buffer export before closing, so close() cannot
        # raise BufferError and the caller may unlink the file.
        offsets = adj = adj_eids = None
        mapping.close()
        raise
    # The rebuilt edge table is immutable derived data; freezing it marks
    # it as part of the mapped image, which DiskArray.attach adopts.
    graph.edges.setflags(write=False)
    # The views' .base keeps the mapping alive; the explicit handle makes
    # the lifetime visible (and lets tests close deterministically).
    graph.rgr_mapping = mapping
    return graph


def write_rgr(graph: Graph, path: PathLike) -> int:
    """Write the ``.rgr`` image of *graph*; returns the bytes written."""
    payload = graph_to_rgr_bytes(graph)
    with open(path, "wb") as handle:
        handle.write(payload)
    return len(payload)


def read_rgr(path: PathLike) -> Graph:
    """Read a graph written by :func:`write_rgr`."""
    with open(path, "rb") as handle:
        return graph_from_rgr_bytes(handle.read(), source=str(path))


def is_rgr(path: PathLike) -> bool:
    """Whether *path* starts with the ``.rgr`` magic."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(RGR_MAGIC)) == RGR_MAGIC
    except OSError:
        return False
