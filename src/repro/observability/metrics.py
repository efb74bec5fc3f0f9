"""Metrics registry: counters, gauges and histograms with labels.

The tracer answers "where did this run's I/O and time go"; the metrics
registry answers "how is the system behaving" — cache hit ratios per
extent, WAL fsync latency, peel-round widths — as cheap always-on
aggregates a serving deployment could scrape. The design is a miniature
of the Prometheus client model:

* an instrument is identified by a *name* plus a sorted label set
  (``histogram("wal.fsync_seconds")``, ``gauge("cache.hit_ratio",
  extent="adj")``);
* observation is O(1) and allocation-free after the first call;
* :meth:`MetricsRegistry.snapshot` renders everything into one
  JSON-serialisable dict, which ``reporting.render_metrics`` and the
  benchmark harness stamp into their reports.

A process-wide default registry (:func:`global_metrics`) collects the
library's built-in instruments; components that want isolation (tests,
the benchmark harness) swap it with :func:`push_metrics` /
:func:`pop_metrics` or pass their own registry explicitly. Metrics never
touch the charged :class:`~repro.storage.IOStats` ledger, so enabling or
resetting them cannot perturb the I/O bill.
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "global_metrics",
    "push_metrics",
    "pop_metrics",
]

#: Default histogram buckets: latency-flavoured, from 10 µs to 10 s.
DEFAULT_BUCKETS = (
    1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 10.0,
)

LabelItems = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelItems:
    # Serving looks up several instruments per request, each with at most
    # one label: those keys need no generator and no sort.
    if not labels:
        return ()
    if len(labels) == 1:
        ((key, value),) = labels.items()
        return ((key, str(value)),)
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _label_suffix(labels: LabelItems) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"


class Counter:
    """A monotonically increasing count (events, bytes, appends)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add *amount* (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """A value that goes up and down (hit ratio, queue depth)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self.value = float(value)


class Histogram:
    """Bucketed distribution of observations (latencies, widths).

    Buckets are upper bounds (``le``); an implicit ``+inf`` bucket catches
    the tail. ``sum``/``count``/``max`` ride along so mean and worst-case
    fall out of a snapshot without retaining raw samples.

    >>> h = Histogram(buckets=(1.0, 10.0))
    >>> for v in (0.5, 2.0, 100.0): h.observe(v)
    >>> h.count, h.bucket_counts
    (3, [1, 1, 1])
    """

    __slots__ = ("buckets", "bucket_counts", "count", "sum", "max")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.buckets: List[float] = sorted(float(b) for b in buckets)
        self.bucket_counts: List[int] = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0
        self.max = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.bucket_counts[bisect.bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Mean of all observations (0 when empty)."""
        return self.sum / self.count if self.count else 0.0


class MetricsRegistry:
    """Get-or-create home for named instruments.

    >>> registry = MetricsRegistry()
    >>> registry.counter("wal.appends").inc()
    >>> registry.gauge("cache.hit_ratio", extent="adj").set(0.75)
    >>> registry.snapshot()["counters"]["wal.appends"]
    1
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, LabelItems], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelItems], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelItems], Histogram] = {}

    def counter(self, name: str, **labels: Any) -> Counter:
        """The counter registered under ``name`` + *labels*."""
        key = (name, _label_key(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._counters.setdefault(key, Counter())
        return instrument

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """The gauge registered under ``name`` + *labels*."""
        key = (name, _label_key(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.setdefault(key, Gauge())
        return instrument

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        **labels: Any,
    ) -> Histogram:
        """The histogram registered under ``name`` + *labels*.

        *buckets* only matters on the creating call; later callers get the
        existing instrument regardless.
        """
        key = (name, _label_key(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.setdefault(
                    key, Histogram(buckets if buckets is not None else DEFAULT_BUCKETS)
                )
        return instrument

    def reset(self) -> None:
        """Drop every instrument (tests and benchmark sections)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def snapshot(self) -> Dict[str, Any]:
        """All instruments as one JSON-serialisable dict.

        Keys are ``name{label=value,...}`` strings; histograms expand to
        ``{count, sum, mean, max, buckets}`` where ``buckets`` maps each
        upper bound (and ``+inf``) to its cumulative-free count.
        """
        with self._lock:
            counters = {
                name + _label_suffix(labels): counter.value
                for (name, labels), counter in sorted(self._counters.items())
            }
            gauges = {
                name + _label_suffix(labels): gauge.value
                for (name, labels), gauge in sorted(self._gauges.items())
            }
            histograms = {}
            for (name, labels), histogram in sorted(self._histograms.items()):
                bounds = [str(b) for b in histogram.buckets] + ["+inf"]
                histograms[name + _label_suffix(labels)] = {
                    "count": histogram.count,
                    "sum": histogram.sum,
                    "mean": histogram.mean,
                    "max": histogram.max,
                    "buckets": dict(zip(bounds, histogram.bucket_counts)),
                }
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }


#: Stack of active registries; the base entry is the process-wide default.
_REGISTRIES: List[MetricsRegistry] = [MetricsRegistry()]


def global_metrics() -> MetricsRegistry:
    """The currently active registry (top of the stack)."""
    return _REGISTRIES[-1]


def push_metrics(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Make *registry* (or a fresh one) the active registry; returns it.

    Scoped collection for tests and benchmark sections::

        registry = push_metrics()
        try:
            ...  # library instruments land in `registry`
        finally:
            pop_metrics()
    """
    registry = registry if registry is not None else MetricsRegistry()
    _REGISTRIES.append(registry)
    return registry


def pop_metrics() -> MetricsRegistry:
    """Deactivate (and return) the registry installed by :func:`push_metrics`."""
    if len(_REGISTRIES) == 1:
        raise RuntimeError("cannot pop the default metrics registry")
    return _REGISTRIES.pop()
