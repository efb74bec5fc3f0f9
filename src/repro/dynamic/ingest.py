"""Pipelined batch ingestion: bounded queue, micro-batches, backpressure.

The per-op ingestion path applies (and, durably, fsyncs) every edge update
on its own, so sustained throughput is barrier-bound. This module is the
streaming front end that fixes that: a producer-facing :meth:`submit`
feeds a **bounded queue**, and a consumer drains it in **micro-batches**
that flush adaptively — on size (a full batch is waiting), on age (the
oldest queued event has waited ``max_delay`` seconds), or on queue
pressure (the queue hit capacity). Each drained batch goes through one
``apply_batch``/``DurableMaintenance.apply`` call, which coalesces
net-zero churn and — on the durable path — group-commits the whole batch
under a single fsync (:meth:`repro.persistence.wal.WriteAheadLog.append_group`).

Backpressure is explicit: when the queue is full, the configured policy
decides whether the producer **blocks** (in synchronous mode the producer
simply does the consumer's work inline), the **oldest** queued event is
dropped, or the new event is **rejected** (``submit`` returns ``False``).
A firehose therefore degrades gracefully — bounded memory, counted losses
— instead of growing unbounded state.

Two execution modes share all of the above:

* **synchronous** (default): ``submit`` drains ready batches inline on
  the caller's thread — fully deterministic, what the exactness tests
  sweep;
* **threaded**: :meth:`start` launches a consumer thread so producers and
  the apply path overlap (the "pipelined" in the name); results are
  identical because the queue is FIFO and batches apply sequentially.

Exactness is non-negotiable either way: for any accepted event sequence
the final decomposition is bit-identical to per-op maintenance of that
sequence (property-tested in ``tests/test_ingest.py``).

With ``window=N`` the pipeline is the sliding-window stream: it keeps
the ``k_max``-truss of the last ``N`` distinct edge *arrivals* alive. An
arrival of an edge that is already live is skipped (counted in
``stats.duplicates_skipped``), and once more than ``N`` edges are live the
oldest one expires as a delete in the same batch. Per-event streaming is
``batch_size=1``; larger batches give the same exact answers with fewer
global recomputes. The window transformation runs at drain time, in
queue order, so dropping a queued arrival under ``drop-oldest`` can never
strand a half-applied edge.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..errors import IngestError
from ..observability.metrics import global_metrics

#: ("insert" | "delete", u, v)
BatchOp = Tuple[str, int, int]

#: Queue entry: (op-or-"arrival", u, v, enqueue time).
_Event = Tuple[str, int, int, float]

#: Size-flavoured buckets for the ``ingest.batch_size`` histogram.
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

FLUSH_TRIGGERS = ("size", "age", "pressure", "manual")

#: Full-queue policies of :class:`IngestPipeline` (``backpressure=``).
INGEST_BACKPRESSURE_POLICIES = ("block", "drop-oldest", "reject")


@dataclass
class IngestStats:
    """Counters accumulated by one pipeline lifetime."""

    submitted: int = 0        #: submit calls (incl. rejected/dropped)
    accepted: int = 0         #: events that entered the queue
    dropped: int = 0          #: evicted by the drop-oldest policy
    rejected: int = 0         #: refused by the reject policy
    duplicates_skipped: int = 0  #: window mode: arrivals already live
    arrivals: int = 0         #: window mode: arrivals turned into inserts
    expirations: int = 0      #: window mode: evictions past the window
    applied_ops: int = 0      #: operations handed to the sink
    batches: int = 0          #: non-empty micro-batches applied
    flushes: Dict[str, int] = field(
        default_factory=lambda: {trigger: 0 for trigger in FLUSH_TRIGGERS}
    )
    max_queue_depth: int = 0
    apply_seconds: float = 0.0    #: time inside the sink's apply call
    elapsed_seconds: float = 0.0  #: first submit -> close wall-clock

    @property
    def edges_per_sec(self) -> float:
        """Sustained throughput over the pipeline lifetime (0 if idle)."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.applied_ops / self.elapsed_seconds


class IngestPipeline:
    """Bounded-queue micro-batching front end for a maintenance sink.

    Parameters
    ----------
    sink:
        Where drained batches land: anything with ``apply_batch(ops)``
        (:class:`~repro.dynamic.DynamicMaxTruss`) or ``apply(ops)``
        (:class:`~repro.persistence.recovery.DurableMaintenance` — the
        durable path, one group-commit fsync per batch).
    window:
        ``None`` (default) ingests raw insert/delete operations. An
        integer enables sliding-window mode: :meth:`submit` takes edge
        *arrivals*, and the pipeline emits the matching insert/expire
        operations itself.
    batch_size:
        Micro-batch flush threshold (events); also the drain granularity.
    queue_capacity:
        Bound on queued events; reaching it engages *backpressure*.
    backpressure:
        ``"block"`` (default): the producer waits for space — in
        synchronous mode by draining a batch inline. ``"drop-oldest"``:
        evict the oldest queued event, count it in ``stats.dropped``.
        ``"reject"``: leave the queue untouched, ``submit`` returns
        ``False``.
    max_delay:
        Age trigger in seconds: a queued event older than this forces a
        flush even if the batch is not full. ``None`` disables (size and
        pressure triggers only).
    clock:
        Injectable monotonic clock (tests drive the age trigger with a
        fake one).
    on_batch_applied:
        Optional hook called as ``on_batch_applied(op_count)`` right after
        each non-empty micro-batch lands in the sink. The serve layer uses
        it to wake the snapshot promoter the moment new WAL records exist.
        Must be cheap and non-blocking: in synchronous mode it runs under
        the pipeline lock, and it must never call back into the pipeline.
        A raising hook is treated like a consumer failure.

    Example
    -------
    >>> from repro.dynamic import DynamicMaxTruss
    >>> from repro.graph.memgraph import Graph
    >>> state = DynamicMaxTruss(Graph.empty(0))
    >>> with IngestPipeline(state, window=100, batch_size=2) as pipe:
    ...     for edge in [(0, 1), (1, 2), (0, 2)]:
    ...         _ = pipe.submit(*edge)
    >>> state.k_max
    3
    """

    def __init__(
        self,
        sink,
        *,
        window: Optional[int] = None,
        batch_size: int = 64,
        queue_capacity: int = 1024,
        backpressure: str = "block",
        max_delay: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
        on_batch_applied: Optional[Callable[[int], None]] = None,
    ) -> None:
        if window is not None and window < 1:
            raise IngestError(f"window must be >= 1 or None, got {window}")
        if batch_size < 1:
            raise IngestError(f"batch_size must be >= 1, got {batch_size}")
        if queue_capacity < 1:
            raise IngestError(
                f"queue_capacity must be >= 1, got {queue_capacity}"
            )
        if backpressure not in INGEST_BACKPRESSURE_POLICIES:
            raise IngestError(
                f"unknown backpressure policy {backpressure!r}; "
                f"known: {', '.join(INGEST_BACKPRESSURE_POLICIES)}"
            )
        if max_delay is not None and max_delay <= 0:
            raise IngestError(
                f"max_delay must be positive or None, got {max_delay}"
            )
        apply_ops = getattr(sink, "apply_batch", None) or getattr(
            sink, "apply", None
        )
        if apply_ops is None:
            raise IngestError(
                f"sink {type(sink).__name__} has neither apply_batch nor apply"
            )
        self.sink = sink
        self._apply_ops = apply_ops
        self.window = window
        self.batch_size = batch_size
        self.queue_capacity = queue_capacity
        self.backpressure = backpressure
        self.max_delay = max_delay
        self._clock = clock
        self.on_batch_applied = on_batch_applied
        self.stats = IngestStats()
        self._queue: Deque[_Event] = deque()
        self._cond = threading.Condition()
        self._thread: Optional[threading.Thread] = None
        self._closing = False
        self._closed = False
        self._flush_requested = False
        self._inflight = False
        self._error: Optional[BaseException] = None
        self._started_at: Optional[float] = None
        # Window state (drain-side: mutated only by the consumer).
        self._live: Deque[Tuple[int, int]] = deque()
        self._live_set: set = set()

    # ------------------------------------------------------------------ #
    # producer interface
    # ------------------------------------------------------------------ #

    def submit(self, u: int, v: int) -> bool:
        """Submit one edge arrival (window mode) / insertion (raw mode).

        Returns ``True`` when the event entered the queue, ``False`` when
        the ``reject`` policy refused it.
        """
        kind = "arrival" if self.window is not None else "insert"
        return self._submit_event(kind, int(u), int(v))

    def submit_op(self, op: str, u: int, v: int) -> bool:
        """Submit an explicit ``insert``/``delete`` operation (raw mode)."""
        if self.window is not None:
            raise IngestError(
                "explicit operations are invalid in window mode; "
                "submit arrivals and let the window emit expirations"
            )
        if op not in ("insert", "delete"):
            raise IngestError(f"unknown ingest operation {op!r}")
        return self._submit_event(op, int(u), int(v))

    def submit_many(self, edges) -> int:
        """Submit a sequence of ``(u, v)`` arrivals; returns accepted count."""
        accepted = 0
        for u, v in edges:
            if self.submit(int(u), int(v)):
                accepted += 1
        return accepted

    def _submit_event(self, kind: str, u: int, v: int) -> bool:
        if u == v:
            raise IngestError("self-loops are not allowed in the stream")
        with self._cond:
            self._check_error_locked()
            if self._closed or self._closing:
                raise IngestError("submit on a closed pipeline")
            if self._started_at is None:
                self._started_at = self._clock()
            self.stats.submitted += 1
            if len(self._queue) >= self.queue_capacity:
                if self.backpressure == "reject":
                    self.stats.rejected += 1
                    return False
                if self.backpressure == "drop-oldest":
                    self._queue.popleft()
                    self.stats.dropped += 1
                elif self._thread is not None:
                    while (
                        len(self._queue) >= self.queue_capacity
                        and self._error is None
                    ):
                        self._cond.wait()
                    self._check_error_locked()
                else:
                    # Synchronous block: the producer does the consumer's
                    # work inline — the queue-pressure flush.
                    self._drain_one_locked("pressure")
            self._queue.append((kind, u, v, self._clock()))
            self.stats.accepted += 1
            depth = len(self._queue)
            if depth > self.stats.max_queue_depth:
                self.stats.max_queue_depth = depth
            global_metrics().gauge("ingest.queue_depth").set(depth)
            if self._thread is not None:
                self._cond.notify_all()
            else:
                while self._sync_trigger_locked() is not None:
                    self._drain_one_locked(self._sync_trigger_locked())
        return True

    def flush(self) -> None:
        """Drain and apply everything queued, regardless of triggers."""
        with self._cond:
            self._check_error_locked()
            if self._thread is not None:
                self._flush_requested = True
                self._cond.notify_all()
                while (
                    self._queue or self._inflight or self._flush_requested
                ) and self._error is None:
                    self._cond.wait()
                self._check_error_locked()
            else:
                while self._queue:
                    self._drain_one_locked("manual")

    def close(self) -> None:
        """Flush, stop the consumer (if any) and finalise stats; idempotent."""
        with self._cond:
            if self._closed:
                return
            if self._thread is not None:
                self._closing = True
                self._cond.notify_all()
            else:
                while self._queue:
                    self._drain_one_locked("manual")
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        with self._cond:
            self._closed = True
            if self._started_at is not None:
                self.stats.elapsed_seconds = self._clock() - self._started_at
            global_metrics().gauge("ingest.queue_depth").set(0)
            global_metrics().gauge("ingest.edges_per_sec").set(
                self.stats.edges_per_sec
            )
            self._check_error_locked()

    def __enter__(self) -> "IngestPipeline":
        return self

    def __exit__(self, exc_type, *_exc) -> None:
        if exc_type is None:
            self.close()
            return
        # The block's own exception propagates, not a secondary one from
        # draining what it left queued.
        with contextlib.suppress(Exception):
            self.close()

    # ------------------------------------------------------------------ #
    # consumer side
    # ------------------------------------------------------------------ #

    def start(self) -> "IngestPipeline":
        """Launch the background consumer thread (pipelined mode)."""
        with self._cond:
            self._check_error_locked()
            if self._closed or self._closing:
                raise IngestError("start on a closed pipeline")
            if self._thread is not None:
                raise IngestError("consumer already running")
            self._thread = threading.Thread(
                target=self._consumer_loop, name="ingest-consumer", daemon=True
            )
            self._thread.start()
        return self

    def queue_depth(self) -> int:
        """Events currently queued (pending, not yet drained)."""
        with self._cond:
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

    # -- triggers ------------------------------------------------------- #

    def _sync_trigger_locked(self) -> Optional[str]:
        if len(self._queue) >= self.batch_size:
            return "size"
        if (
            self.max_delay is not None
            and self._queue
            and self._clock() - self._queue[0][3] >= self.max_delay
        ):
            return "age"
        return None

    def _drain_one_locked(self, trigger: str) -> None:
        """Take and apply one micro-batch on the caller's thread."""
        batch: List[_Event] = []
        while self._queue and len(batch) < self.batch_size:
            batch.append(self._queue.popleft())
        global_metrics().gauge("ingest.queue_depth").set(len(self._queue))
        if batch:
            self._apply_events(batch, trigger)

    # -- batch application (shared by both modes) ----------------------- #

    def _transform(self, events: List[_Event]) -> List[BatchOp]:
        if self.window is None:
            return [(kind, u, v) for kind, u, v, _t in events]
        ops: List[BatchOp] = []
        for _kind, u, v, _t in events:
            pair = (u, v) if u < v else (v, u)
            if pair in self._live_set:
                self.stats.duplicates_skipped += 1
                continue
            self._live.append(pair)
            self._live_set.add(pair)
            ops.append(("insert", pair[0], pair[1]))
            self.stats.arrivals += 1
            if len(self._live) > self.window:
                old = self._live.popleft()
                self._live_set.discard(old)
                ops.append(("delete", old[0], old[1]))
                self.stats.expirations += 1
        return ops

    def _apply_events(self, events: List[_Event], trigger: str) -> None:
        ops = self._transform(events)
        self.stats.flushes[trigger] += 1
        if not ops:
            return
        self.stats.batches += 1
        metrics = global_metrics()
        metrics.histogram(
            "ingest.batch_size", buckets=BATCH_SIZE_BUCKETS
        ).observe(len(ops))
        start = self._clock()
        self._apply_ops(ops)
        seconds = self._clock() - start
        self.stats.apply_seconds += seconds
        self.stats.applied_ops += len(ops)
        metrics.counter("ingest.ops_applied").inc(len(ops))
        metrics.histogram("ingest.batch_seconds").observe(seconds)
        if self.on_batch_applied is not None:
            self.on_batch_applied(len(ops))

    # -- threaded consumer ---------------------------------------------- #

    def _consumer_loop(self) -> None:
        try:
            while True:
                with self._cond:
                    trigger = self._wait_for_work_locked()
                    if trigger is None:
                        return
                    batch: List[_Event] = []
                    while self._queue and len(batch) < self.batch_size:
                        batch.append(self._queue.popleft())
                    global_metrics().gauge("ingest.queue_depth").set(
                        len(self._queue)
                    )
                    self._inflight = True
                    # Space freed: unblock producers before applying.
                    self._cond.notify_all()
                try:
                    if batch:
                        self._apply_events(batch, trigger)
                finally:
                    with self._cond:
                        self._inflight = False
                        if self._flush_requested and not self._queue:
                            self._flush_requested = False
                        self._cond.notify_all()
        except BaseException as exc:  # propagate to the producer side
            with self._cond:
                self._error = exc
                self._inflight = False
                self._cond.notify_all()

    def _wait_for_work_locked(self) -> Optional[str]:
        """Block until a flush trigger fires; ``None`` means shut down."""
        while True:
            if self._queue:
                if self._closing:
                    return "manual"
                if self._flush_requested:
                    return "manual"
                if len(self._queue) >= self.batch_size:
                    return "size"
                if len(self._queue) >= self.queue_capacity:
                    return "pressure"
                if self.max_delay is not None:
                    age = self._clock() - self._queue[0][3]
                    if age >= self.max_delay:
                        return "age"
                    self._cond.wait(self.max_delay - age)
                    continue
            elif self._closing:
                return None
            elif self._flush_requested:
                self._flush_requested = False
                self._cond.notify_all()
            self._cond.wait(0.05 if self.max_delay is not None else None)

    def _check_error_locked(self) -> None:
        if self._error is not None:
            error, self._error = self._error, None
            self._closed = True
            raise IngestError(
                f"ingest consumer failed: {error!r}"
            ) from error

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = "threaded" if self._thread is not None else "sync"
        return (
            f"IngestPipeline({mode}, batch_size={self.batch_size}, "
            f"queued={len(self._queue)}, applied={self.stats.applied_ops})"
        )
