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

import struct
import zlib
from pathlib import Path
from typing import Union

import numpy as np

from ..errors import GraphFormatError
from ..graph.memgraph import Graph

PathLike = Union[str, Path]

RGR_MAGIC = b"RGRF"
RGR_VERSION = 1
_HEADER = struct.Struct("<4sIQQI")

#: Conventional file extension (the CLI keys dispatch on it).
RGR_EXTENSION = ".rgr"


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


def graph_from_rgr_bytes(payload: bytes, source: str = "<bytes>") -> Graph:
    """Deserialise a ``.rgr`` image; validates checksum and structure."""
    if len(payload) < _HEADER.size:
        raise GraphFormatError(f"{source}: truncated .rgr header")
    magic, version, n, m, crc = _HEADER.unpack_from(payload)
    if magic != RGR_MAGIC:
        raise GraphFormatError(f"{source}: bad .rgr magic {magic!r}")
    if version != RGR_VERSION:
        raise GraphFormatError(f"{source}: unsupported .rgr version {version}")
    body = payload[_HEADER.size:]
    expected = 8 * ((n + 1) + 4 * m)
    if len(body) != expected:
        raise GraphFormatError(
            f"{source}: .rgr body is {len(body)} bytes, header implies {expected}"
        )
    if zlib.crc32(body) != crc:
        raise GraphFormatError(f"{source}: .rgr checksum mismatch")
    offsets = np.frombuffer(body, dtype="<i8", count=n + 1).astype(np.int64)
    adj = np.frombuffer(
        body, dtype="<i8", count=2 * m, offset=8 * (n + 1)
    ).astype(np.int64)
    adj_eids = np.frombuffer(
        body, dtype="<i8", count=2 * m, offset=8 * (n + 1 + 2 * m)
    ).astype(np.int64)
    if offsets[0] != 0 or offsets[-1] != 2 * m or np.any(np.diff(offsets) < 0):
        raise GraphFormatError(f"{source}: .rgr offsets are not a valid CSR")
    if m and (
        adj.min() < 0 or adj.max() >= n
        or adj_eids.min() < 0 or adj_eids.max() >= m
    ):
        raise GraphFormatError(f"{source}: .rgr adjacency ids out of range")
    # Rebuild the canonical edge array from the forward half of the CSR
    # (each edge appears once as (u, v) with v > u at slot adj_eids) and
    # assemble the Graph directly — no per-edge CSR reconstruction.
    owner = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
    forward = adj > owner
    if int(forward.sum()) != m:
        raise GraphFormatError(f"{source}: .rgr adjacency is not symmetric")
    edges = np.empty((m, 2), dtype=np.int64)
    edges[adj_eids[forward], 0] = owner[forward]
    edges[adj_eids[forward], 1] = adj[forward]
    if m and np.any(edges[:-1, 0] * (n + 1) + edges[:-1, 1]
                    >= edges[1:, 0] * (n + 1) + edges[1:, 1]):
        raise GraphFormatError(f"{source}: .rgr edge ids are not canonical")
    return Graph.from_csr(n, edges, offsets, adj, adj_eids)


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
