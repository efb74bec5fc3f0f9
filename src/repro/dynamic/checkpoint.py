"""Checkpointing for :class:`DynamicMaxTruss`.

A maintenance deployment runs for days (the paper's motivation: evolving
social networks); restarting from scratch means a full decomposition. A
checkpoint captures everything the state owns logically — the graph, the
current ``k_max``, the class with its in-truss supports, and the coreness
cache with its staleness counter — in one self-describing binary file.
I/O-accounting state (device counters) intentionally restarts at zero.

Format (version 2): magic/version header, then little-endian int64
sections, then a trailing CRC32 (of header + sections)::

    n, k_max, insertions_since_refresh, wal_seq,
    m,      m * (u, v, stable_eid)
    c,      c * (eid, in_truss_support)
    n_core, n_core * coreness
    crc32 (u32)

``wal_seq`` is the sequence number of the last write-ahead-log record the
state has applied (0 when checkpointing outside the WAL lifecycle); the
recovery path (:mod:`repro.persistence.recovery`) uses it to skip WAL
records the checkpoint already contains. Version-1 files (no ``wal_seq``,
no CRC) still load.

Crash safety: :func:`save_checkpoint` writes to a temporary file in the
target directory, fsyncs it, and atomically :func:`os.replace`\\ s it over
*path* — a crash mid-save can never corrupt the previous checkpoint, and
the trailing CRC rejects any torn or bit-rotted image at load time.
"""

from __future__ import annotations

import os
import struct
import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple, Union

import numpy as np

from ..engine.context import ContextLike
from ..errors import GraphFormatError
from ..graph.memgraph import Graph
from ..observability.metrics import global_metrics
from ..observability.tracer import trace_span
from .state import DynamicMaxTruss

PathLike = Union[str, Path]

_MAGIC = 0x544B5043  # "CPKT"
_VERSION = 2
_V1 = 1
_HEADER = struct.Struct("<II")
_CRC = struct.Struct("<I")


def _pack_ints(values) -> bytes:
    return np.asarray(list(values), dtype="<i8").tobytes()


class _Reader:
    def __init__(self, payload: bytes) -> None:
        self.payload = payload
        self.offset = 0

    def ints(self, count: int) -> np.ndarray:
        nbytes = 8 * count
        if self.offset + nbytes > len(self.payload):
            raise GraphFormatError("truncated checkpoint payload")
        out = np.frombuffer(
            self.payload, dtype="<i8", count=count, offset=self.offset
        ).astype(np.int64)
        self.offset += nbytes
        return out

    def one(self) -> int:
        return int(self.ints(1)[0])


def _fsync_directory(path: PathLike) -> None:
    """Best-effort directory fsync so the rename itself is durable."""
    directory = os.path.dirname(os.path.abspath(str(path))) or "."
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fs without dir-fsync
        pass
    finally:
        os.close(fd)


def save_checkpoint(
    state: DynamicMaxTruss, path: PathLike, wal_seq: int = 0
) -> int:
    """Atomically write *state* to *path*; returns the byte size written.

    The image lands via temp file + fsync + :func:`os.replace`, so *path*
    always holds either the previous intact checkpoint or the new one —
    never a torn mixture. *wal_seq* records the last applied WAL sequence
    for the recovery protocol (0 outside the WAL lifecycle).
    """
    with trace_span("checkpoint.save", kind="device", wal_seq=int(wal_seq)):
        size = _save_checkpoint_impl(state, path, wal_seq)
    metrics = global_metrics()
    metrics.counter("checkpoint.saves").inc()
    metrics.gauge("checkpoint.bytes").set(size)
    return size


def _save_checkpoint_impl(
    state: DynamicMaxTruss, path: PathLike, wal_seq: int
) -> int:
    chunks = [_HEADER.pack(_MAGIC, _VERSION)]
    chunks.append(_pack_ints([
        state.graph.n, state.k_max, state._insertions_since_refresh,
        int(wal_seq),
    ]))
    edge_rows = []
    for eid in state.graph.live_edge_ids():
        u, v = state.graph.endpoints(eid)
        edge_rows.extend((u, v, eid))
    chunks.append(_pack_ints([len(edge_rows) // 3]))
    chunks.append(_pack_ints(edge_rows))
    class_rows = []
    for eid, sup in state._truss_sup.items():
        class_rows.extend((eid, sup))
    chunks.append(_pack_ints([len(class_rows) // 2]))
    chunks.append(_pack_ints(class_rows))
    chunks.append(_pack_ints([len(state._coreness)]))
    chunks.append(_pack_ints(state._coreness))
    body = b"".join(chunks)
    payload = body + _CRC.pack(zlib.crc32(body))
    path = str(path)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    handle, temp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(handle, "wb") as temp:
            temp.write(payload)
            temp.flush()
            os.fsync(temp.fileno())
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise
    _fsync_directory(path)
    return len(payload)


@dataclass(frozen=True)
class CheckpointImage:
    """The logical content of a checkpoint without the maintenance state.

    A cheap read of the sections a snapshot promoter needs — vertex count,
    ``k_max``, the WAL frontier, and the edge list — skipping the
    :class:`DynamicMaxTruss` reconstruction (class rebuild, coreness cache,
    charged adjacency rebuild) that :func:`load_checkpoint` performs.
    """

    n: int
    k_max: int
    wal_seq: int
    #: ``(m, 3)`` rows of ``(u, v, stable_eid)`` in insertion order.
    edges: np.ndarray


def _parse_checkpoint(path: PathLike) -> Tuple[CheckpointImage, int, _Reader]:
    """Check *path*'s header, version and CRC and parse it through the
    edge rows.

    Returns the image, the coreness staleness counter and a reader
    positioned at the class rows.
    """
    with open(path, "rb") as handle:
        payload = handle.read()
    if len(payload) < _HEADER.size:
        raise GraphFormatError(f"{path}: truncated checkpoint header")
    magic, version = _HEADER.unpack(payload[: _HEADER.size])
    if magic != _MAGIC:
        raise GraphFormatError(f"{path}: bad checkpoint magic 0x{magic:08x}")
    if version not in (_V1, _VERSION):
        raise GraphFormatError(f"{path}: unsupported checkpoint version {version}")
    if version >= _VERSION:
        if len(payload) < _HEADER.size + _CRC.size:
            raise GraphFormatError(f"{path}: truncated checkpoint trailer")
        body, (crc,) = payload[: -_CRC.size], _CRC.unpack(payload[-_CRC.size:])
        if zlib.crc32(body) != crc:
            raise GraphFormatError(f"{path}: checkpoint checksum mismatch")
        payload = body
    reader = _Reader(payload[_HEADER.size:])
    n = reader.one()
    k_max = reader.one()
    staleness = reader.one()
    wal_seq = reader.one() if version >= _VERSION else 0
    edge_rows = reader.ints(3 * reader.one()).reshape(-1, 3)
    image = CheckpointImage(n=n, k_max=k_max, wal_seq=wal_seq, edges=edge_rows)
    return image, staleness, reader


def read_checkpoint_image(path: PathLike) -> CheckpointImage:
    """Parse *path* into a :class:`CheckpointImage` (validates the CRC).

    Read-only and side-effect free: safe against a live checkpoint file,
    because :func:`save_checkpoint` replaces it atomically — a reader sees
    either the old intact image or the new one.
    """
    return _parse_checkpoint(path)[0]


def load_checkpoint(
    path: PathLike,
    context: Optional[ContextLike] = None,
) -> DynamicMaxTruss:
    """Restore a :class:`DynamicMaxTruss` from *path*.

    The restored state is behaviourally identical to the saved one (same
    answers, same stable edge ids); the storage context starts fresh
    unless an existing *context* is supplied.
    The WAL sequence recorded at save time is exposed as
    ``state.recovered_wal_seq`` (0 for version-1 checkpoints).
    """
    with trace_span("checkpoint.load", kind="device"):
        return _load_checkpoint_impl(path, context)


def _load_checkpoint_impl(
    path: PathLike,
    context: Optional[ContextLike],
) -> DynamicMaxTruss:
    image, staleness, reader = _parse_checkpoint(path)
    class_rows = reader.ints(2 * reader.one()).reshape(-1, 2)
    coreness = reader.ints(reader.one())

    # Rebuild through the normal constructor on an empty graph, then
    # overwrite the logical state (keeps file/memory charging coherent).
    state = DynamicMaxTruss(Graph.empty(image.n), context=context)
    for u, v, eid in image.edges:
        state.graph._insert_with_eid(int(u), int(v), int(eid))
    state.adj_file.charge_rebuild(
        [state.graph.degree(v) for v in range(max(state.graph.n, image.n))]
    )
    class_support = {int(eid): int(sup) for eid, sup in class_rows}
    rows = []
    for eid, sup in class_support.items():
        u, v = state.graph.endpoints(eid)
        rows.append((u, v, eid, sup))
    state.set_class(rows, image.k_max)
    state._coreness = coreness
    state._insertions_since_refresh = staleness
    state.memory.charge("dyn.coreness", coreness.nbytes)
    state.recovered_wal_seq = image.wal_seq
    return state
