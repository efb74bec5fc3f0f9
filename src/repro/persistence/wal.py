"""Write-ahead log for dynamic maintenance streams.

A maintenance deployment that runs for days cannot afford to lose the
update stream between checkpoints. The WAL is the classic answer: every
insert/delete batch is appended — length- and CRC-framed — *before* it is
applied, so after a crash the state equals the latest checkpoint plus a
replay of the log tail.

File layout::

    header:  magic "RWAL" (4 bytes) + version u32
    record:  u32 payload length | u32 crc32(payload) | payload
    payload: u64 sequence | u8 opcode | u32 count | count * (i64 u, i64 v)

Opcodes: 1 = insert batch, 2 = delete batch. Sequence numbers increase by
one per record; a checkpoint stores the last applied sequence so replay
after recovery skips records the checkpoint already contains (a crash
between "checkpoint written" and "log truncated" must not double-apply).

Torn tails are expected, not exceptional: a crash mid-append leaves a
record whose length field, payload, or CRC is incomplete. The reader
stops at the first frame that fails validation and reports the byte
offset of the last valid record; :func:`repair_wal` truncates the file
there. A torn record is therefore *detected and dropped*, never applied.
"""

from __future__ import annotations

import os
import struct
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Sequence, Tuple, Union

from ..errors import GraphFormatError
from ..observability.metrics import global_metrics

PathLike = Union[str, Path]
EdgePair = Tuple[int, int]

_MAGIC = b"RWAL"
_VERSION = 1
_FILE_HEADER = struct.Struct("<4sI")
_FRAME = struct.Struct("<II")          # payload length, crc32(payload)
_PAYLOAD_HEAD = struct.Struct("<QBI")  # sequence, opcode, edge count

OP_INSERT = 1
OP_DELETE = 2
_OP_NAMES = {OP_INSERT: "insert", OP_DELETE: "delete"}
_OP_CODES = {name: code for code, name in _OP_NAMES.items()}

#: Size-flavoured buckets for the ``wal.group_size`` histogram (records
#: per group commit) — the latency defaults would lump every group > 10.
GROUP_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


@dataclass(frozen=True)
class WalRecord:
    """One logged update batch."""

    seq: int
    op: str  # "insert" | "delete"
    edges: Tuple[EdgePair, ...]


def _encode_payload(seq: int, op: str, edges: Iterable[EdgePair]) -> bytes:
    try:
        opcode = _OP_CODES[op]
    except KeyError:
        raise GraphFormatError(
            f"unknown WAL operation {op!r}; known: {', '.join(_OP_CODES)}"
        ) from None
    pairs = [(int(u), int(v)) for u, v in edges]
    chunks = [_PAYLOAD_HEAD.pack(seq, opcode, len(pairs))]
    chunks += [struct.pack("<qq", u, v) for u, v in pairs]
    return b"".join(chunks)


def _decode_payload(payload: bytes) -> WalRecord:
    if len(payload) < _PAYLOAD_HEAD.size:
        raise GraphFormatError("WAL payload shorter than its header")
    seq, opcode, count = _PAYLOAD_HEAD.unpack_from(payload)
    if opcode not in _OP_NAMES:
        raise GraphFormatError(f"unknown WAL opcode {opcode}")
    expected = _PAYLOAD_HEAD.size + 16 * count
    if len(payload) != expected:
        raise GraphFormatError(
            f"WAL payload length {len(payload)} != declared {expected}"
        )
    edges = []
    offset = _PAYLOAD_HEAD.size
    for _ in range(count):
        u, v = struct.unpack_from("<qq", payload, offset)
        edges.append((int(u), int(v)))
        offset += 16
    return WalRecord(int(seq), _OP_NAMES[opcode], tuple(edges))


class WriteAheadLog:
    """Appender for a WAL file.

    Every append fsyncs before it returns: the durability contract "a
    batch is applied only after it is on stable storage".

    Parameters
    ----------
    path:
        Log file; created (with header) if missing, validated and appended
        to if present — the next sequence number continues from the last
        valid record.
    file_ops:
        Optional syscall shim (see :mod:`repro.persistence.faults`) with
        ``write(fd, data)`` / ``fsync(fd)``; tests inject torn writes and
        crashes through it.
    """

    def __init__(self, path: PathLike, file_ops=None) -> None:
        self.path = str(path)
        self._ops = file_ops if file_ops is not None else _OsFileOps()
        self.fsyncs = 0
        if os.path.exists(self.path) and os.path.getsize(self.path) > 0:
            records, valid_bytes, _torn = read_wal(self.path)
            self.next_seq = records[-1].seq + 1 if records else 1
            self._fd = os.open(self.path, os.O_WRONLY)
            os.ftruncate(self._fd, valid_bytes)
            if valid_bytes < _FILE_HEADER.size:
                # The header write itself was torn — rebuild it.
                os.lseek(self._fd, 0, os.SEEK_SET)
                self._ops.write(self._fd, _FILE_HEADER.pack(_MAGIC, _VERSION))
                self._sync()
            else:
                os.lseek(self._fd, valid_bytes, os.SEEK_SET)
        else:
            self.next_seq = 1
            self._fd = os.open(
                self.path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600
            )
            self._ops.write(self._fd, _FILE_HEADER.pack(_MAGIC, _VERSION))
            self._sync()

    def _sync(self) -> None:
        start = time.perf_counter()
        self._ops.fsync(self._fd)
        self.fsyncs += 1
        # fsync is the durability tax of the log-then-apply contract;
        # its latency distribution is the metric a deployment watches.
        global_metrics().histogram("wal.fsync_seconds").observe(
            time.perf_counter() - start
        )

    def append(self, op: str, edges: Iterable[EdgePair]) -> int:
        """Frame and append one batch; returns its sequence number.

        The frame is assembled in memory and issued as a single write so
        the only torn-write surface is the tail of the file — exactly what
        the reader's validation covers.
        """
        if self._fd is None:
            raise GraphFormatError(f"WAL {self.path} is closed")
        seq = self.next_seq
        payload = _encode_payload(seq, op, edges)
        frame = _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
        self._ops.write(self._fd, frame)
        self._sync()
        self.next_seq = seq + 1
        metrics = global_metrics()
        metrics.counter("wal.appends").inc()
        metrics.counter("wal.bytes_appended").inc(len(frame))
        return seq

    def append_group(
        self, records: Sequence[Tuple[str, Iterable[EdgePair]]]
    ) -> List[int]:
        """Group-commit: frame *records* and issue **one** durability barrier.

        Each ``(op, edges)`` entry becomes an ordinary record — its own
        length+CRC frame and consecutive sequence number, byte-identical
        to ``len(records)`` separate :meth:`append` calls — but all frames
        are concatenated into a single ``write`` followed by at most one
        fsync. That amortises the durability tax from one barrier per
        record to one per group, while crash semantics are unchanged at
        the record level: a crash tearing the group mid-write leaves a
        valid prefix of its records, which the reader replays exactly
        like a torn tail of individual appends (the torn record is
        detected and dropped, never applied).

        Returns the sequence numbers assigned, in order.
        """
        if self._fd is None:
            raise GraphFormatError(f"WAL {self.path} is closed")
        records = list(records)
        if not records:
            return []
        seqs: List[int] = []
        chunks: List[bytes] = []
        seq = self.next_seq
        for op, edges in records:
            payload = _encode_payload(seq, op, edges)
            chunks.append(
                _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
            )
            seqs.append(seq)
            seq += 1
        blob = b"".join(chunks)
        self._ops.write(self._fd, blob)
        self._sync()
        self.next_seq = seq
        metrics = global_metrics()
        metrics.counter("wal.appends").inc(len(records))
        metrics.counter("wal.bytes_appended").inc(len(blob))
        metrics.counter("wal.groups").inc()
        metrics.histogram(
            "wal.group_size", buckets=GROUP_SIZE_BUCKETS
        ).observe(len(records))
        return seqs

    def reset(self) -> None:
        """Truncate to an empty (header-only) log — after a checkpoint."""
        if self._fd is None:
            raise GraphFormatError(f"WAL {self.path} is closed")
        os.lseek(self._fd, 0, os.SEEK_SET)
        os.ftruncate(self._fd, 0)
        self._ops.write(self._fd, _FILE_HEADER.pack(_MAGIC, _VERSION))
        self._sync()

    def close(self) -> None:
        """Sync and close the file; idempotent."""
        fd, self._fd = self._fd, None
        if fd is None:
            return
        try:
            self._ops.fsync(fd)
            self.fsyncs += 1
        finally:
            os.close(fd)

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._fd is None else f"next_seq={self.next_seq}"
        return f"WriteAheadLog({self.path!r}, {state})"


class _OsFileOps:
    """Default syscall shim (the non-faulty one)."""

    @staticmethod
    def write(fd: int, data: bytes) -> int:
        return os.write(fd, data)

    @staticmethod
    def fsync(fd: int) -> None:
        os.fsync(fd)


def read_wal(path: PathLike) -> Tuple[List[WalRecord], int, bool]:
    """Read every valid record of a WAL file.

    Returns ``(records, valid_bytes, torn)``: *valid_bytes* is the offset
    just past the last intact record (the truncation point), *torn* is
    ``True`` when trailing bytes after it failed validation (short frame,
    CRC mismatch, or undecodable payload). A header shorter than its fixed
    size is a torn header (crash during creation or reset) and reads as an
    empty torn log; a *full* header with wrong magic or version raises
    :class:`~repro.errors.GraphFormatError` — that is corruption of the
    log itself, not a torn tail.
    """
    with open(path, "rb") as handle:
        blob = handle.read()
    if len(blob) < _FILE_HEADER.size:
        # A crash during log creation or reset can tear the header write
        # itself; everything the log would have held is in the checkpoint
        # that preceded the reset, so this is a torn-empty log, not
        # corruption (valid_bytes=0 — repair rebuilds the header).
        return [], 0, True
    magic, version = _FILE_HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise GraphFormatError(f"{path}: bad WAL magic {magic!r}")
    if version != _VERSION:
        raise GraphFormatError(f"{path}: unsupported WAL version {version}")
    records: List[WalRecord] = []
    offset = _FILE_HEADER.size
    valid = offset
    torn = False
    while offset < len(blob):
        if offset + _FRAME.size > len(blob):
            torn = True
            break
        length, crc = _FRAME.unpack_from(blob, offset)
        payload = blob[offset + _FRAME.size: offset + _FRAME.size + length]
        if len(payload) < length or zlib.crc32(payload) != crc:
            torn = True
            break
        try:
            record = _decode_payload(payload)
        except GraphFormatError:
            torn = True
            break
        if records and record.seq != records[-1].seq + 1:
            # A sequence gap means the tail belongs to an older log
            # generation (or corruption slipped past the CRC) — stop.
            torn = True
            break
        records.append(record)
        offset += _FRAME.size + length
        valid = offset
    return records, valid, torn


def repair_wal(path: PathLike) -> Tuple[List[WalRecord], bool]:
    """Validate *path* and truncate any torn tail in place.

    Returns ``(records, truncated)``. After this call the file ends at the
    last intact record, so a subsequent :class:`WriteAheadLog` append
    cannot interleave with garbage.
    """
    records, valid_bytes, torn = read_wal(path)
    if torn:
        with open(path, "rb+") as handle:
            handle.truncate(valid_bytes)
            handle.flush()
            os.fsync(handle.fileno())
    return records, torn
