"""Truss query service: snapshot-isolated concurrent serving.

The batch side of the repo builds and maintains a decomposition
(:mod:`repro.persistence`, :mod:`repro.dynamic`); this package answers
queries against it while ingestion keeps writing:

* :mod:`~repro.serve.snapshot` — immutable :class:`Snapshot` bundles
  (graph + trussness + ``wal_seq``), refcount-pinned by readers, published
  atomically by the background :class:`Promoter` replaying the WAL (MVCC:
  pin → promote → retire, readers never block on writers);
* :mod:`~repro.serve.engine` — the per-request :class:`QueryEngine`
  (membership / trussness / community / hierarchy / stats), every answer
  carrying its snapshot id and charged-I/O bill from a read-only
  :class:`~repro.engine.context.ExecutionContext`;
* :mod:`~repro.serve.server` / :mod:`~repro.serve.client` — the asyncio
  TCP server behind ``repro serve`` (newline-delimited JSON; exact point
  queries run on its event loop, the rest on worker threads) and the
  blocking client used by tests and CI;
* :mod:`~repro.serve.cache` — the per-snapshot :class:`ResultCache`
  (answers are immutable per snapshot, so memoisation is exact; evicted
  on snapshot retire).

``membership`` / ``trussness`` / ``stats`` accept ``precision="approx"``:
answers come from per-snapshot :class:`~repro.approx.ApproxEngine` state
and carry ``{estimate, ci, confidence, samples}`` with a sublinear I/O
bill.
"""

from .cache import ResultCache
from .engine import QueryAnswer, QueryEngine
from .protocol import decode_line, encode_envelope, error_envelope
from .server import TrussServer
from .client import TrussClient
from .snapshot import Promoter, Snapshot, SnapshotManager

__all__ = [
    "Promoter",
    "QueryAnswer",
    "QueryEngine",
    "ResultCache",
    "Snapshot",
    "SnapshotManager",
    "TrussClient",
    "TrussServer",
    "decode_line",
    "encode_envelope",
    "error_envelope",
]
