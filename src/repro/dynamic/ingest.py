"""Batch ingestion: micro-batches drained on the caller's thread.

The per-op ingestion path applies (and, durably, fsyncs) every edge update
on its own, so sustained throughput is barrier-bound. This module is the
streaming front end that fixes that: :meth:`IngestPipeline.submit` queues
an event, and the pipeline applies queued events in **micro-batches** on
the thread that submits, flushes or closes. A batch flushes on size (a
full batch is queued) or on age (the oldest queued event has waited
``max_delay`` seconds). Each batch goes through one ``apply_batch`` call
on the sink, which coalesces net-zero churn and — on the durable path —
group-commits the whole batch under a single fsync
(:meth:`repro.persistence.wal.WriteAheadLog.append_group`).

There is one mode: draining is inline, so after every call the queue
holds fewer than ``batch_size`` events, and both triggers are checked
only when an event is submitted. The age trigger therefore fires at the
next submit, not on a timer: a producer blocked on its input (a quiet
stdin, say) leaves a partial batch queued until it submits again, or
until :meth:`flush`, :meth:`close` or the end of the ``with`` block
applies the rest. One lock around submit, flush and close keeps
concurrent producers safe.

Exactness is non-negotiable: for any submitted event sequence the final
decomposition is bit-identical to per-op maintenance of that sequence
(property-tested in ``tests/test_ingest.py``).

With ``window=N`` the pipeline is the sliding-window stream: it keeps
the ``k_max``-truss of the last ``N`` distinct edge *arrivals* alive. An
arrival of an edge that is already live is skipped (counted in
``stats.duplicates_skipped``), and once more than ``N`` edges are live the
oldest one expires as a delete in the same batch. Per-event streaming is
``batch_size=1``; larger batches give the same exact answers with fewer
global recomputes.

A batch the sink rejects with :class:`~repro.errors.GraphFormatError`
(an arrival of an edge the sink's graph already holds, say) is dropped
whole: the window and the stats stay as they were before it, and the
pipeline raises :class:`~repro.errors.IngestError` whose ``dropped``
lists the batch's submitted events.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..errors import GraphFormatError, IngestError
from ..observability.metrics import global_metrics

#: ("insert" | "delete", u, v)
BatchOp = Tuple[str, int, int]

#: Queue entry: (op-or-"arrival", u, v, enqueue time).
_Event = Tuple[str, int, int, float]

#: Size-flavoured buckets for the ``ingest.batch_size`` histogram.
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

FLUSH_TRIGGERS = ("size", "age", "manual")


@dataclass
class IngestStats:
    """Counters accumulated by one pipeline lifetime."""

    submitted: int = 0        #: events submitted (all are queued)
    duplicates_skipped: int = 0  #: window mode: arrivals already live
    arrivals: int = 0         #: window mode: arrivals turned into inserts
    expirations: int = 0      #: window mode: evictions past the window
    applied_ops: int = 0      #: operations handed to the sink
    batches: int = 0          #: non-empty micro-batches applied
    flushes: Dict[str, int] = field(
        default_factory=lambda: {trigger: 0 for trigger in FLUSH_TRIGGERS}
    )
    apply_seconds: float = 0.0    #: time inside the sink's apply call
    elapsed_seconds: float = 0.0  #: first submit -> close wall-clock

    @property
    def edges_per_sec(self) -> float:
        """Sustained throughput over the pipeline lifetime (0 if idle)."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.applied_ops / self.elapsed_seconds


class IngestPipeline:
    """Micro-batching front end for a maintenance sink.

    Parameters
    ----------
    sink:
        Where batches land: anything with ``apply_batch(ops)`` —
        :class:`~repro.dynamic.DynamicMaxTruss`, or
        :class:`~repro.persistence.recovery.DurableMaintenance` for the
        durable path (one group-commit fsync per batch).
    window:
        ``None`` (default) ingests raw insert/delete operations. An
        integer enables sliding-window mode: :meth:`submit` takes edge
        *arrivals*, and the pipeline emits the matching insert/expire
        operations itself.
    batch_size:
        Micro-batch flush threshold (events); also the drain granularity.
    max_delay:
        Age trigger in seconds: a submit that finds the oldest queued
        event this old flushes even if the batch is not full. ``None``
        disables it (size trigger only).
    clock:
        Injectable monotonic clock (tests drive the age trigger with a
        fake one).
    on_batch_applied:
        Optional hook called as ``on_batch_applied(op_count)`` right after
        each non-empty micro-batch lands in the sink. The serve layer uses
        it to wake the snapshot promoter the moment new WAL records exist.
        It runs under the pipeline lock, so it must be cheap and must
        never call back into the pipeline; an exception it raises
        propagates to the call that drained the batch.

    Example
    -------
    >>> from repro.dynamic import DynamicMaxTruss
    >>> from repro.graph.memgraph import Graph
    >>> state = DynamicMaxTruss(Graph.empty(0))
    >>> with IngestPipeline(state, window=100, batch_size=2) as pipe:
    ...     for edge in [(0, 1), (1, 2), (0, 2)]:
    ...         pipe.submit(*edge)
    >>> state.k_max
    3
    """

    def __init__(
        self,
        sink,
        *,
        window: Optional[int] = None,
        batch_size: int = 64,
        max_delay: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
        on_batch_applied: Optional[Callable[[int], None]] = None,
    ) -> None:
        if window is not None and window < 1:
            raise IngestError(f"window must be >= 1 or None, got {window}")
        if batch_size < 1:
            raise IngestError(f"batch_size must be >= 1, got {batch_size}")
        if max_delay is not None and max_delay <= 0:
            raise IngestError(
                f"max_delay must be positive or None, got {max_delay}"
            )
        if not callable(getattr(sink, "apply_batch", None)):
            raise IngestError(f"sink {type(sink).__name__} has no apply_batch")
        self.sink = sink
        self.window = window
        self.batch_size = batch_size
        self.max_delay = max_delay
        self._clock = clock
        self.on_batch_applied = on_batch_applied
        self.stats = IngestStats()
        self._queue: Deque[_Event] = deque()
        self._lock = threading.Lock()
        self._closed = False
        self._started_at: Optional[float] = None
        # Window state, mutated only while a batch drains.
        self._live: Deque[Tuple[int, int]] = deque()
        self._live_set: set = set()

    # ------------------------------------------------------------------ #
    # producer interface
    # ------------------------------------------------------------------ #

    def submit(self, u: int, v: int) -> None:
        """Submit one edge arrival (window mode) / insertion (raw mode)."""
        kind = "arrival" if self.window is not None else "insert"
        self._submit_event(kind, int(u), int(v))

    def submit_op(self, op: str, u: int, v: int) -> None:
        """Submit an explicit ``insert``/``delete`` operation (raw mode)."""
        if self.window is not None:
            raise IngestError(
                "explicit operations are invalid in window mode; "
                "submit arrivals and let the window emit expirations"
            )
        if op not in ("insert", "delete"):
            raise IngestError(f"unknown ingest operation {op!r}")
        self._submit_event(op, int(u), int(v))

    def submit_many(self, edges) -> None:
        """Submit a sequence of ``(u, v)`` arrivals."""
        for u, v in edges:
            self.submit(u, v)

    def _submit_event(self, kind: str, u: int, v: int) -> None:
        if u == v:
            raise IngestError("self-loops are not allowed in the stream")
        with self._lock:
            if self._closed:
                raise IngestError("submit on a closed pipeline")
            now = self._clock()
            if self._started_at is None:
                self._started_at = now
            self.stats.submitted += 1
            self._queue.append((kind, u, v, now))
            while (trigger := self._trigger_locked()) is not None:
                self._drain_one_locked(trigger)

    def flush(self) -> None:
        """Apply everything queued, regardless of triggers."""
        with self._lock:
            while self._queue:
                self._drain_one_locked("manual")

    def close(self) -> None:
        """Apply what is still queued and finalise stats; idempotent.

        The pipeline is closed even when applying the rest raises.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                while self._queue:
                    self._drain_one_locked("manual")
            finally:
                if self._started_at is not None:
                    self.stats.elapsed_seconds = (
                        self._clock() - self._started_at
                    )
                global_metrics().gauge("ingest.edges_per_sec").set(
                    self.stats.edges_per_sec
                )

    def __enter__(self) -> "IngestPipeline":
        return self

    def __exit__(self, exc_type, *_exc) -> None:
        if exc_type is None:
            self.close()
            return
        # The block's own exception propagates, not a secondary one from
        # applying what it left queued.
        with contextlib.suppress(Exception):
            self.close()

    def queue_depth(self) -> int:
        """Events currently queued (pending, not yet applied)."""
        with self._lock:
            return len(self._queue)

    @property
    def k_max(self) -> int:
        """Current ``k_max`` of the sink state (flushes first)."""
        self.flush()
        return self._sink_state().k_max

    def truss_pairs(self) -> List[Tuple[int, int]]:
        """Current ``k_max``-truss of the sink state (flushes first)."""
        self.flush()
        return self._sink_state().truss_pairs()

    def _sink_state(self):
        return getattr(self.sink, "state", self.sink)

    # ------------------------------------------------------------------ #
    # draining
    # ------------------------------------------------------------------ #

    def _trigger_locked(self) -> Optional[str]:
        if len(self._queue) >= self.batch_size:
            return "size"
        if (
            self.max_delay is not None
            and self._queue
            and self._clock() - self._queue[0][3] >= self.max_delay
        ):
            return "age"
        return None

    def _transform(self, events: List[_Event]) -> Tuple[List[BatchOp], int]:
        """The batch's operations and how many arrivals were already live.

        Window mode moves the window over the batch as it goes; the ops are
        the journal :meth:`_undo_window` replays backwards."""
        if self.window is None:
            return [(kind, u, v) for kind, u, v, _t in events], 0
        ops: List[BatchOp] = []
        skipped = 0
        for _kind, u, v, _t in events:
            pair = (u, v) if u < v else (v, u)
            if pair in self._live_set:
                skipped += 1
                continue
            self._live.append(pair)
            self._live_set.add(pair)
            ops.append(("insert", pair[0], pair[1]))
            if len(self._live) > self.window:
                old = self._live.popleft()
                self._live_set.discard(old)
                ops.append(("delete", old[0], old[1]))
        return ops, skipped

    def _undo_window(self, ops: List[BatchOp]) -> None:
        """Move the window back over a rejected batch's *ops*, newest
        first: an insert was an append, a delete a pop from the left."""
        for kind, u, v in reversed(ops):
            if kind == "insert":
                self._live.pop()
                self._live_set.discard((u, v))
            else:
                self._live.appendleft((u, v))
                self._live_set.add((u, v))

    def _drain_one_locked(self, trigger: str) -> None:
        """Take one micro-batch off the queue and apply it to the sink."""
        count = min(self.batch_size, len(self._queue))
        events = [self._queue.popleft() for _ in range(count)]
        ops, skipped = self._transform(events)
        seconds = 0.0
        if ops:
            start = self._clock()
            try:
                self.sink.apply_batch(ops)
            except BaseException as exc:
                if self.window is not None:
                    self._undo_window(ops)
                if not isinstance(exc, GraphFormatError):
                    raise
                error = IngestError(f"{exc}; dropped {count} submitted event(s)")
                error.dropped = [event[:3] for event in events]
                raise error from exc
            seconds = self._clock() - start
        self.stats.flushes[trigger] += 1
        if self.window is not None:
            arrivals = count - skipped
            self.stats.duplicates_skipped += skipped
            self.stats.arrivals += arrivals
            self.stats.expirations += len(ops) - arrivals
        if not ops:
            return
        self.stats.batches += 1
        metrics = global_metrics()
        metrics.histogram(
            "ingest.batch_size", buckets=BATCH_SIZE_BUCKETS
        ).observe(len(ops))
        self.stats.apply_seconds += seconds
        self.stats.applied_ops += len(ops)
        metrics.counter("ingest.ops_applied").inc(len(ops))
        metrics.histogram("ingest.batch_seconds").observe(seconds)
        if self.on_batch_applied is not None:
            self.on_batch_applied(len(ops))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IngestPipeline(batch_size={self.batch_size}, "
            f"queued={len(self._queue)}, applied={self.stats.applied_ops})"
        )
