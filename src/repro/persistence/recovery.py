"""Crash-safe maintenance: checkpoint + WAL lifecycle and recovery.

:class:`DurableMaintenance` wraps a :class:`~repro.dynamic.DynamicMaxTruss`
with the standard database protocol:

1. every update batch is checked against the state
   (:func:`repro.dynamic.batch.check_batch`), so a rejected update is
   never logged, and then appended to the write-ahead log *before* it is
   applied (:mod:`repro.persistence.wal`);
2. periodically (every *checkpoint_every* operations, or on demand) the
   whole state is checkpointed atomically
   (:func:`repro.dynamic.checkpoint.save_checkpoint`: temp file + fsync +
   ``os.replace``) with the last applied WAL sequence stamped inside,
   after which the log is reset;
3. after a crash, :func:`recover` loads the latest checkpoint, truncates
   any torn WAL tail (CRC-framed records — a partial append is detected
   and dropped, never applied), and replays exactly the records the
   checkpoint has not seen (``seq > checkpoint.wal_seq`` — immune to a
   crash between "checkpoint written" and "log reset").

The recovered state is *exact*: its ``k_max``-truss equals a from-scratch
decomposition of the surviving update history, which the recovery tests
assert under injected torn-write and fail-after-N crashes
(:mod:`repro.persistence.faults`).

Directory layout: ``<dir>/state.ckpt`` and ``<dir>/wal.log``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence, Tuple, Union

from ..dynamic.batch import check_batch
from ..dynamic.checkpoint import load_checkpoint, save_checkpoint
from ..dynamic.state import DynamicMaxTruss
from ..engine.context import ContextLike
from ..errors import GraphFormatError
from ..graph.memgraph import Graph
from ..observability.tracer import trace_span
from .wal import WriteAheadLog, repair_wal

PathLike = Union[str, Path]
BatchOp = Tuple[str, int, int]

CHECKPOINT_NAME = "state.ckpt"
WAL_NAME = "wal.log"


@dataclass(frozen=True)
class RecoveryInfo:
    """What :func:`recover` found and did."""

    checkpoint_seq: int    #: last WAL sequence the checkpoint contained
    wal_records: int       #: intact records found in the log
    replayed_records: int  #: records with seq > checkpoint_seq re-applied
    replayed_ops: int      #: individual edge operations re-applied
    wal_torn: bool         #: a torn tail was detected and truncated


class DurableMaintenance:
    """A :class:`DynamicMaxTruss` with WAL-backed crash safety.

    Parameters
    ----------
    state:
        The maintenance state to make durable. Fresh directories get an
        initial checkpoint immediately (recovery needs a base image).
    directory:
        Home of ``state.ckpt`` and ``wal.log``; created if missing. A
        directory that already holds a checkpoint is an error here — use
        :func:`recover` (or :meth:`DurableMaintenance.recover`) instead,
        so an unnoticed crash cannot be silently overwritten.
    checkpoint_every:
        Auto-checkpoint after this many applied edge operations
        (``None`` — manual :meth:`checkpoint` calls only).
    file_ops:
        Optional syscall shim for the WAL (fault injection in tests).

    Example
    -------
    >>> from repro.graph.generators import paper_example_graph
    >>> import tempfile
    >>> with tempfile.TemporaryDirectory() as home:
    ...     durable = DurableMaintenance(
    ...         DynamicMaxTruss(paper_example_graph()), home)
    ...     _ = durable.insert(0, 4)
    ...     durable.close()
    ...     recovered = recover(home)
    ...     recovered.state.k_max
    5
    """

    def __init__(
        self,
        state: DynamicMaxTruss,
        directory: PathLike,
        checkpoint_every: Optional[int] = None,
        file_ops=None,
        _recovering: bool = False,
    ) -> None:
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be positive or None, got {checkpoint_every}"
            )
        self.state = state
        self.directory = str(directory)
        self.checkpoint_every = checkpoint_every
        os.makedirs(self.directory, exist_ok=True)
        self.checkpoint_path = os.path.join(self.directory, CHECKPOINT_NAME)
        self.wal_path = os.path.join(self.directory, WAL_NAME)
        if _recovering:
            # Set by recover(): max of checkpoint wal_seq and last replayed
            # record, so new appends continue strictly after history.
            self.applied_seq = getattr(state, "recovered_wal_seq", 0)
        else:
            if os.path.exists(self.checkpoint_path):
                raise GraphFormatError(
                    f"{self.directory} already holds a checkpoint; "
                    "use repro.persistence.recover() to resume it"
                )
            self.applied_seq = 0
            save_checkpoint(state, self.checkpoint_path, wal_seq=0)
        self.wal = WriteAheadLog(self.wal_path, file_ops=file_ops)
        if self.wal.next_seq <= self.applied_seq:
            # The log was reset at the last checkpoint (or is empty after a
            # torn-tail truncation); keep sequences strictly increasing so
            # the checkpoint's wal_seq can never mask a future record.
            self.wal.next_seq = self.applied_seq + 1
        self._ops_since_checkpoint = 0

    # ------------------------------------------------------------------ #
    # logged updates
    # ------------------------------------------------------------------ #

    def insert(self, u: int, v: int):
        """Durably insert edge ``(u, v)``: check, log, then apply."""
        return self._update("insert", u, v)

    def delete(self, u: int, v: int):
        """Durably delete edge ``(u, v)``: check, log, then apply."""
        return self._update("delete", u, v)

    def _update(self, op: str, u: int, v: int):
        with trace_span("durable." + op, kind="op", u=u, v=v):
            check_batch(self.state, [(op, u, v)])
            self.applied_seq = self.wal.append(op, [(u, v)])
            result = getattr(self.state, op)(u, v)
            self._after_apply(1)
        return result

    def apply_batch(self, operations: Sequence[BatchOp]):
        """Durably apply a mixed batch of ``(op, u, v)`` operations.

        The batch is checked first
        (:func:`~repro.dynamic.batch.check_batch`), so a rejected batch
        reaches neither the log nor the state. Consecutive same-op runs
        are then framed as one WAL record each (order preserved) and the
        whole batch is group-committed through
        :meth:`~repro.persistence.wal.WriteAheadLog.append_group` — one
        durability barrier per batch instead of one per record — and only
        then applied through
        :meth:`~repro.dynamic.DynamicMaxTruss.apply_batch`. A crash
        tearing the group leaves a durable prefix of its records, which
        recovery replays exactly like any torn tail.
        """
        operations = list(operations)
        if not operations:
            return None
        with trace_span("durable.apply_batch", kind="op", ops=len(operations)):
            check_batch(self.state, operations)
            self.applied_seq = self.wal.append_group(list(_runs(operations)))[-1]
            result = self.state.apply_batch(operations)
            self._after_apply(len(operations))
        return result

    def _after_apply(self, ops: int) -> None:
        self._ops_since_checkpoint += ops
        if (
            self.checkpoint_every is not None
            and self._ops_since_checkpoint >= self.checkpoint_every
        ):
            self.checkpoint()

    # ------------------------------------------------------------------ #
    # checkpoint lifecycle
    # ------------------------------------------------------------------ #

    def checkpoint(self) -> int:
        """Atomically checkpoint the state, then reset the log.

        Crash windows are all safe: before the ``os.replace`` the old
        checkpoint + full log recover; after it but before the log reset,
        the new checkpoint's ``wal_seq`` makes replay skip the stale
        records.
        """
        with trace_span("durable.checkpoint", kind="op"):
            size = save_checkpoint(
                self.state, self.checkpoint_path, wal_seq=self.applied_seq
            )
            self.wal.reset()
            self._ops_since_checkpoint = 0
        return size

    def close(self, checkpoint: bool = False) -> None:
        """Close the WAL (optionally checkpointing first); idempotent."""
        if checkpoint and self._ops_since_checkpoint:
            self.checkpoint()
        self.wal.close()

    def __enter__(self) -> "DurableMaintenance":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # recovery
    # ------------------------------------------------------------------ #

    @classmethod
    def recover(
        cls,
        directory: PathLike,
        context: Optional[ContextLike] = None,
        checkpoint_every: Optional[int] = None,
    ) -> "DurableMaintenance":
        """Resume a crashed (or cleanly closed) durable deployment.

        Loads the checkpoint, truncates any torn WAL tail, replays the
        unseen records, and returns a manager ready for further updates.
        The :class:`RecoveryInfo` of what happened is at
        ``manager.last_recovery``.
        """
        directory = str(directory)
        checkpoint_path = os.path.join(directory, CHECKPOINT_NAME)
        if not os.path.exists(checkpoint_path):
            raise GraphFormatError(
                f"{directory}: no checkpoint to recover from"
            )
        state = load_checkpoint(checkpoint_path, context=context)
        checkpoint_seq = getattr(state, "recovered_wal_seq", 0)
        wal_path = os.path.join(directory, WAL_NAME)
        records, torn = (
            repair_wal(wal_path) if os.path.exists(wal_path) else ([], False)
        )
        replay: list = []
        replayed_records = 0
        for record in records:
            if record.seq <= checkpoint_seq:
                continue
            replayed_records += 1
            replay.extend((record.op, u, v) for u, v in record.edges)
        if replay:
            with trace_span("recovery.replay", kind="op",
                            records=replayed_records, ops=len(replay)):
                state.apply_batch(replay)
        state.recovered_wal_seq = max(
            checkpoint_seq, records[-1].seq if records else 0
        )
        manager = cls(
            state, directory, checkpoint_every=checkpoint_every,
            _recovering=True,
        )
        manager.last_recovery = RecoveryInfo(
            checkpoint_seq=checkpoint_seq,
            wal_records=len(records),
            replayed_records=replayed_records,
            replayed_ops=len(replay),
            wal_torn=torn,
        )
        manager._ops_since_checkpoint = len(replay)
        return manager

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DurableMaintenance({self.directory!r}, k_max={self.state.k_max}, "
            f"applied_seq={self.applied_seq})"
        )


def _runs(operations: Iterable[BatchOp]):
    """Group consecutive same-op operations into (op, edges) runs."""
    run_op: Optional[str] = None
    edges: list = []
    for op, u, v in operations:
        if op != run_op and edges:
            yield run_op, edges
            edges = []
        run_op = op
        edges.append((u, v))
    if edges:
        yield run_op, edges


def recover(
    directory: PathLike,
    context: Optional[ContextLike] = None,
    checkpoint_every: Optional[int] = None,
) -> DurableMaintenance:
    """Module-level alias for :meth:`DurableMaintenance.recover`."""
    return DurableMaintenance.recover(
        directory, context=context, checkpoint_every=checkpoint_every
    )


def durable_from_graph(
    graph: Graph,
    directory: PathLike,
    context: Optional[ContextLike] = None,
    checkpoint_every: Optional[int] = None,
    file_ops=None,
) -> DurableMaintenance:
    """Convenience: build the state and wrap it durably in one call."""
    state = DynamicMaxTruss(graph, context=context)
    return DurableMaintenance(
        state, directory, checkpoint_every=checkpoint_every, file_ops=file_ops
    )
