"""Sliding-window stream processing over the maintenance engine.

Streaming graph systems keep only the most recent ``window`` edges alive
(interaction networks age out). :class:`SlidingWindowTruss` feeds an edge
stream through :class:`DynamicMaxTruss`: each arrival inserts the new edge
and evicts the expired one, either per event or in micro-batches through
:func:`repro.dynamic.batch.apply_batch` (fewer global recomputes under
bursty arrival, same exact answers).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Iterable, Iterator, List, Optional, Tuple

from ..engine.context import ContextLike
from ..graph.memgraph import Graph
from .state import DynamicMaxTruss

EdgePair = Tuple[int, int]

#: Default retention of :class:`BoundedHistory` (values, not bytes).
DEFAULT_HISTORY_CAPACITY = 1024


class BoundedHistory:
    """Ring buffer of the most recent values with exact count and peak.

    A firehose run flushes millions of micro-batches; recording ``k_max``
    after every one in an unbounded list grows memory linearly with flush
    count. This ring retains the last *capacity* values for inspection
    while ``count`` (total values ever appended) and ``peak`` (largest
    value ever appended) stay exact regardless of eviction.

    Sequence access (``len``, indexing, iteration) covers the retained
    window only; negative indices address it from the newest end, so
    ``history[-1]`` is always the latest value.

    >>> h = BoundedHistory(capacity=3)
    >>> for v in (5, 9, 2, 4): h.append(v)
    >>> list(h), h[-1], h.count, h.peak
    ([9, 2, 4], 4, 4, 9)
    """

    __slots__ = ("capacity", "count", "peak", "_ring")

    def __init__(self, capacity: int = DEFAULT_HISTORY_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"history capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.count = 0
        self.peak = 0
        self._ring: Deque[int] = deque(maxlen=capacity)

    def append(self, value: int) -> None:
        """Record one value (evicting the oldest beyond capacity)."""
        self._ring.append(value)
        self.count += 1
        if value > self.peak:
            self.peak = value

    def __len__(self) -> int:
        return len(self._ring)

    def __getitem__(self, index: int) -> int:
        return self._ring[index]

    def __iter__(self) -> Iterator[int]:
        return iter(self._ring)

    def to_list(self) -> List[int]:
        """The retained window as a plain list (oldest first)."""
        return list(self._ring)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BoundedHistory):
            return (
                self.count == other.count
                and self.peak == other.peak
                and self._ring == other._ring
            )
        if isinstance(other, (list, tuple)):
            return self.to_list() == list(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BoundedHistory(capacity={self.capacity}, count={self.count}, "
            f"peak={self.peak}, retained={len(self._ring)})"
        )


@dataclass
class StreamStats:
    """Counters accumulated by a sliding-window run."""

    arrivals: int = 0
    expirations: int = 0
    duplicates_skipped: int = 0
    k_max_history: BoundedHistory = field(default_factory=BoundedHistory)

    @property
    def k_max_peak(self) -> int:
        """Largest ``k_max`` observed (0 if nothing processed) — exact
        even after the history ring has evicted the peak flush."""
        return self.k_max_history.peak


class SlidingWindowTruss:
    """Maintains the ``k_max``-truss of the last *window* streamed edges.

    Parameters
    ----------
    window:
        Number of most-recent edges kept alive.
    batch_size:
        1 (default) applies arrivals/expirations per event; larger values
        buffer them and flush through the batch API.
    history_capacity:
        Retained ``k_max`` samples in ``stats.k_max_history`` (count and
        peak stay exact beyond it).

    Example
    -------
    >>> stream = SlidingWindowTruss(window=100)
    >>> for u, v in edge_source:          # doctest: +SKIP
    ...     stream.push(u, v)
    >>> stream.k_max                      # doctest: +SKIP
    """

    def __init__(
        self,
        window: int,
        batch_size: int = 1,
        context: Optional[ContextLike] = None,
        history_capacity: int = DEFAULT_HISTORY_CAPACITY,
    ) -> None:
        if window < 1:
            raise ValueError("window must be at least 1")
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        self.window = window
        self.batch_size = batch_size
        self.state = DynamicMaxTruss(Graph.empty(0), context=context)
        self._live: Deque[EdgePair] = deque()
        self._live_set: set = set()
        self._pending: List[Tuple[str, int, int]] = []
        self.stats = StreamStats(
            k_max_history=BoundedHistory(history_capacity)
        )

    # ------------------------------------------------------------------ #
    # stream interface
    # ------------------------------------------------------------------ #

    @property
    def k_max(self) -> int:
        """Current ``k_max`` (flushes buffered events first)."""
        self.flush()
        return self.state.k_max

    def truss_pairs(self) -> List[EdgePair]:
        """Current ``k_max``-truss (flushes buffered events first)."""
        self.flush()
        return self.state.truss_pairs()

    def live_edge_count(self) -> int:
        """Edges currently inside the window."""
        return len(self._live)

    def push(self, u: int, v: int) -> None:
        """Stream one edge arrival (duplicates of live edges are skipped)."""
        if u == v:
            raise ValueError("self-loops are not allowed in the stream")
        pair = (min(u, v), max(u, v))
        if pair in self._live_set:
            self.stats.duplicates_skipped += 1
            return
        self._live.append(pair)
        self._live_set.add(pair)
        self._pending.append(("insert", pair[0], pair[1]))
        self.stats.arrivals += 1
        if len(self._live) > self.window:
            old = self._live.popleft()
            self._live_set.discard(old)
            self._pending.append(("delete", old[0], old[1]))
            self.stats.expirations += 1
        if len(self._pending) >= self.batch_size:
            self.flush()

    def push_many(self, edges: Iterable[EdgePair]) -> None:
        """Stream a sequence of arrivals."""
        for u, v in edges:
            self.push(int(u), int(v))

    def flush(self) -> None:
        """Apply buffered events and record the resulting ``k_max``."""
        if not self._pending:
            return
        operations, self._pending = self._pending, []
        if len(operations) == 1 and self.batch_size == 1:
            op, u, v = operations[0]
            if op == "insert":
                self.state.insert(u, v)
            else:
                self.state.delete(u, v)
        else:
            self.state.apply_batch(operations)
        self.stats.k_max_history.append(self.state.k_max)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SlidingWindowTruss(window={self.window}, live={len(self._live)}, "
            f"k_max={self.state.k_max})"
        )
