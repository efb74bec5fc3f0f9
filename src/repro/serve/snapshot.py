"""MVCC snapshots for the query service: pin → promote → retire.

A :class:`Snapshot` is an immutable bundle of everything a query needs —
the graph image, the per-edge trussness array, ``k_max`` and the WAL
frontier it reflects. The :class:`SnapshotManager` hands the *current*
snapshot to readers under a refcount (:meth:`SnapshotManager.pinned`), so
a request keeps one consistent view for its whole lifetime no matter how
many times the writer side advances underneath it.

Writers never touch the manager directly: they append through
:class:`~repro.persistence.recovery.DurableMaintenance` (or the ingest
pipeline layered on it), and the background :class:`Promoter` turns the
durable checkpoint + WAL tail into fresh snapshots — read-only scans
(:func:`~repro.persistence.wal.read_wal`, never ``repair_wal``, which
truncates a live writer's log) followed by one atomic publish. Readers
therefore never block on writers and vice versa; an old snapshot is
*retired* (dropped from the manager, reclaimed by GC) the moment its last
pin drains.

Snapshot ids are strictly increasing and the published ``wal_seq`` never
decreases — the monotonicity the isolation tests assert.
"""

from __future__ import annotations

import contextlib
import os
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

import numpy as np

from ..baselines.inmemory import truss_decomposition
from ..dynamic.checkpoint import read_checkpoint_image
from ..errors import GraphFormatError, ServeError
from ..graph.memgraph import Graph
from ..observability.metrics import global_metrics
from ..observability.tracer import trace_span
from ..persistence.recovery import CHECKPOINT_NAME, WAL_NAME
from ..persistence.wal import read_wal


@dataclass(frozen=True)
class Snapshot:
    """One immutable published version of the served decomposition.

    Attributes
    ----------
    snapshot_id:
        Strictly-increasing publish counter (1 for the initial snapshot).
    graph:
        The frozen CSR graph image (dense edge ids).
    trussness:
        Per-edge trussness aligned with ``graph``'s edge ids.
    k_max:
        Maximum trussness (2 for a triangle-free graph, 0 when empty).
    wal_seq:
        The last WAL sequence number folded into this snapshot; answers
        pinned here are exact for the update history up to this record.
    """

    snapshot_id: int
    graph: Graph
    trussness: np.ndarray
    k_max: int
    wal_seq: int

    def __post_init__(self) -> None:
        if len(self.trussness) != self.graph.m:
            raise ServeError(
                f"trussness length {len(self.trussness)} != graph edges "
                f"{self.graph.m}"
            )


def _snapshot_from_graph(
    snapshot_id: int,
    graph: Graph,
    wal_seq: int,
    trussness: Optional[np.ndarray] = None,
) -> Snapshot:
    if trussness is None:
        # Snapshot preparation is writer-side preprocessing, like building
        # an .rgr image: uncharged, off the readers' bills.
        trussness = truss_decomposition(graph)
    trussness = np.asarray(trussness, dtype=np.int64)
    k_max = int(trussness.max()) if len(trussness) else 0
    return Snapshot(
        snapshot_id=snapshot_id,
        graph=graph,
        trussness=trussness,
        k_max=k_max,
        wal_seq=int(wal_seq),
    )


class SnapshotManager:
    """Refcounted publish/pin/retire lifecycle for :class:`Snapshot`\\ s.

    Thread-safe: queries pin from server worker threads while the
    promoter publishes. The lock only guards the (tiny) bookkeeping —
    query execution and snapshot construction run outside it.

    Example
    -------
    >>> from repro.graph.generators import paper_example_graph
    >>> manager = SnapshotManager.initial(paper_example_graph())
    >>> with manager.pinned() as snap:
    ...     snap.snapshot_id, snap.k_max
    (1, 4)
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._current: Optional[Snapshot] = None
        # snapshot_id -> live pin count (current snapshot always tracked)
        self._pins: Dict[int, int] = {}
        self._by_id: Dict[int, Snapshot] = {}
        self._next_id = 1
        self.published = 0
        self.retired = 0
        self._retire_listeners: List[Callable[[int], None]] = []

    def add_retire_listener(self, listener: Callable[[int], None]) -> None:
        """Register ``listener(snapshot_id)`` called after each retire.

        Listeners run *outside* the manager lock (a listener may pin,
        publish or inspect the manager without deadlocking) but on the
        retiring thread, so per-snapshot caches are dropped before the
        retire call returns.
        """
        with self._lock:
            self._retire_listeners.append(listener)

    def _notify_retired(self, snapshot_ids: List[int]) -> None:
        for snapshot_id in snapshot_ids:
            for listener in list(self._retire_listeners):
                listener(snapshot_id)

    @classmethod
    def initial(cls, graph: Graph) -> "SnapshotManager":
        """A manager already holding the first published snapshot."""
        manager = cls()
        manager.publish(graph)
        return manager

    # ------------------------------------------------------------------ #
    # publish / retire (writer side)
    # ------------------------------------------------------------------ #

    def publish(
        self,
        graph: Graph,
        trussness: Optional[np.ndarray] = None,
        wal_seq: int = 0,
    ) -> Snapshot:
        """Atomically make a new snapshot current; returns it.

        The snapshot (including its trussness, computed here when not
        supplied) is built *outside* the lock; pinned readers keep serving
        the old version untouched. ``wal_seq`` must not go backwards.
        """
        with self._lock:
            snapshot_id = self._next_id
        snapshot = _snapshot_from_graph(snapshot_id, graph, wal_seq, trussness)
        retired: List[int] = []
        with self._lock:
            if (
                self._current is not None
                and snapshot.wal_seq < self._current.wal_seq
            ):
                raise ServeError(
                    f"snapshot wal_seq went backwards: "
                    f"{snapshot.wal_seq} < {self._current.wal_seq}"
                )
            self._next_id = snapshot_id + 1
            previous = self._current
            self._current = snapshot
            self._by_id[snapshot_id] = snapshot
            self._pins.setdefault(snapshot_id, 0)
            self.published += 1
            if previous is not None and self._pins[previous.snapshot_id] == 0:
                self._retire_locked(previous.snapshot_id)
                retired.append(previous.snapshot_id)
        self._notify_retired(retired)
        metrics = global_metrics()
        metrics.counter("serve.promotions").inc()
        metrics.gauge("serve.snapshot_id").set(snapshot_id)
        metrics.gauge("serve.snapshot_wal_seq").set(snapshot.wal_seq)
        return snapshot

    def _retire_locked(self, snapshot_id: int) -> None:
        del self._by_id[snapshot_id]
        del self._pins[snapshot_id]
        self.retired += 1
        global_metrics().counter("serve.snapshots_retired").inc()

    # ------------------------------------------------------------------ #
    # pin / unpin (reader side)
    # ------------------------------------------------------------------ #

    def pin(self) -> Snapshot:
        """Take a reference on the current snapshot (pair with unpin)."""
        with self._lock:
            if self._current is None:
                raise ServeError("no snapshot published yet")
            snapshot = self._current
            self._pins[snapshot.snapshot_id] += 1
            return snapshot

    def unpin(self, snapshot: Snapshot) -> None:
        """Release a reference; retires superseded drained snapshots."""
        retired: List[int] = []
        with self._lock:
            snapshot_id = snapshot.snapshot_id
            count = self._pins.get(snapshot_id)
            if not count:
                raise ServeError(f"snapshot {snapshot_id} is not pinned")
            self._pins[snapshot_id] = count - 1
            if (
                count == 1
                and self._current is not None
                and self._current.snapshot_id != snapshot_id
            ):
                self._retire_locked(snapshot_id)
                retired.append(snapshot_id)
        self._notify_retired(retired)

    @contextlib.contextmanager
    def pinned(self) -> Iterator[Snapshot]:
        """Scope one pinned snapshot: the request's consistent view."""
        snapshot = self.pin()
        try:
            yield snapshot
        finally:
            self.unpin(snapshot)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def current(self) -> Optional[Snapshot]:
        """The current snapshot without pinning (frontier checks only)."""
        with self._lock:
            return self._current

    def live_snapshots(self) -> List[int]:
        """Ids still tracked (current + superseded-but-pinned), sorted."""
        with self._lock:
            return sorted(self._by_id)

    def pin_count(self, snapshot_id: int) -> int:
        """Live pins on one snapshot (0 for retired/unknown ids)."""
        with self._lock:
            return self._pins.get(snapshot_id, 0)


@dataclass
class PromotionStats:
    """Counters of one promoter lifetime."""

    attempts: int = 0     #: promote_once calls (wakeups + polls)
    published: int = 0    #: snapshots actually published
    skipped: int = 0      #: wakeups finding no new frontier
    retries: int = 0      #: checkpoint/WAL reset races re-read
    failures: int = 0     #: unreadable checkpoint/WAL (retried next tick)
    last_error: str = field(default="", repr=False)


class Promoter:
    """Background thread replaying durable state into fresh snapshots.

    Watches a :class:`~repro.persistence.recovery.DurableMaintenance`
    directory (``state.ckpt`` + ``wal.log``): each promotion reads the
    checkpoint image, scans the WAL **read-only** for records past the
    checkpoint's ``wal_seq``, folds them into an edge set, and publishes
    the result. The scan tolerates a concurrent writer: a torn tail reads
    as the surviving record prefix, and a checkpoint that resets the log
    between the two reads shows up as a sequence gap, which triggers one
    re-read of the (now newer) checkpoint.

    ``interval`` is the poll period; :meth:`notify` (wired to the ingest
    pipeline's ``on_batch_applied`` hook) wakes the thread early so fresh
    batches become visible without waiting out the poll.
    """

    def __init__(
        self,
        manager: SnapshotManager,
        directory: str,
        interval: float = 0.5,
    ) -> None:
        if interval <= 0:
            raise ServeError(f"promote interval must be positive, got {interval}")
        self.manager = manager
        self.directory = str(directory)
        self.checkpoint_path = os.path.join(self.directory, CHECKPOINT_NAME)
        self.wal_path = os.path.join(self.directory, WAL_NAME)
        self.interval = interval
        self.stats = PromotionStats()
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ------------------------------------------------------- #

    def start(self) -> "Promoter":
        """Launch the promoter thread (daemonic; :meth:`stop` to join)."""
        if self._thread is not None:
            raise ServeError("promoter already running")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="snapshot-promoter", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Signal and join the thread (idempotent)."""
        self._stop.set()
        self._wake.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join()

    def notify(self, _ops: int = 0) -> None:
        """Wake the promoter early (ingest ``on_batch_applied`` signature)."""
        self._wake.set()

    def __enter__(self) -> "Promoter":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()

    def _loop(self) -> None:
        while not self._stop.is_set():
            self._wake.wait(self.interval)
            self._wake.clear()
            if self._stop.is_set():
                return
            self.promote_once()

    # -- one promotion --------------------------------------------------- #

    def promote_once(self) -> Optional[Snapshot]:
        """Publish a snapshot of the durable frontier; ``None`` if stale.

        Safe to call directly (tests drive it deterministically) or from
        the thread. Unreadable files — no checkpoint yet, a WAL caught
        mid-reset — are counted and retried on the next tick rather than
        raised: the writer owns those files and will finish its step.
        """
        self.stats.attempts += 1
        state = self._read_frontier()
        if state is None:
            return None
        frontier, n, edges = state
        current = self.manager.current()
        # WAL records the served snapshot lacks at this tick (0 if current).
        served = current.wal_seq if current is not None else 0
        global_metrics().gauge("serve.snapshot_lag_records").set(
            max(0, frontier - served)
        )
        if current is not None and frontier <= served:
            self.stats.skipped += 1
            return None
        graph = Graph.from_edges(sorted(edges), n=n)
        with trace_span("serve.promote", kind="op", wal_seq=frontier,
                        edges=graph.m):
            snapshot = self.manager.publish(graph, wal_seq=frontier)
        self.stats.published += 1
        return snapshot

    def _read_frontier(self):
        """Read (checkpoint, WAL-tail) into ``(frontier, n, edge set)``."""
        for attempt in range(2):
            try:
                image = read_checkpoint_image(self.checkpoint_path)
            except (OSError, GraphFormatError) as exc:
                self.stats.failures += 1
                self.stats.last_error = repr(exc)
                return None
            try:
                if os.path.exists(self.wal_path):
                    records, _valid, _torn = read_wal(self.wal_path)
                else:
                    records = []
            except (OSError, GraphFormatError) as exc:
                self.stats.failures += 1
                self.stats.last_error = repr(exc)
                return None
            tail = [r for r in records if r.seq > image.wal_seq]
            if tail and tail[0].seq != image.wal_seq + 1:
                # A checkpoint reset the WAL between our two reads; the
                # missing records are inside the newer checkpoint image.
                self.stats.retries += 1
                continue
            break
        else:
            self.stats.failures += 1
            self.stats.last_error = "checkpoint/WAL kept racing"
            return None
        edges = {
            (int(u), int(v)) if u < v else (int(v), int(u))
            for u, v, _eid in image.edges
        }
        n = int(image.n)
        frontier = image.wal_seq
        for record in tail:
            frontier = record.seq
            for u, v in record.edges:
                pair = (u, v) if u < v else (v, u)
                if record.op == "insert":
                    edges.add(pair)
                    n = max(n, pair[1] + 1)
                else:
                    edges.discard(pair)
        return frontier, n, edges


def bootstrap_manager(
    directory: str,
    on_missing: Optional[Callable[[], Graph]] = None,
) -> SnapshotManager:
    """Build a manager from a durable directory's current frontier.

    Performs one synchronous promotion so the server starts with the
    freshest durable state. *on_missing* supplies a graph when the
    directory holds no checkpoint yet (fresh deployments).
    """
    manager = SnapshotManager()
    promoter = Promoter(manager, directory)
    if promoter.promote_once() is None:
        if on_missing is None:
            raise ServeError(
                f"{directory}: no readable checkpoint to serve from"
            )
        manager.publish(on_missing(), wal_seq=0)
    return manager
