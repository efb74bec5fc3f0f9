"""The parallel execution tier: ambient executor + image/pool ownership.

Mirrors the tracer's ambient-stack pattern
(:mod:`repro.observability.tracer`): an :class:`ExecutionContext` with
``config.workers > 1`` owns one lazily-built :class:`ParallelExecutor`
and activates it around an algorithm run via
``context.parallel_kernels()``; the support scan (``compute_supports``)
consults :func:`active_executor` and dispatches to the sharded path when
the work is large enough — no signature threading, and probes deep inside
the binary search parallelize for free.

Gating can never change the bill: the parallel path replays the exact
serial touch sequence (see :mod:`repro.parallel.ledger`), so whether a
given scan crossed ``parallel_threshold`` is invisible to the charged
ledger.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, List, Optional

from .shm import SharedGraphImage, publish_graph

#: Dense scan images are published only when 4 * n**2 fits in this budget
#: (float32 n x n adjacency; ~8k vertices at the 256 MiB default).
DENSE_BUDGET_BYTES = 256 * 1024 * 1024


class ParallelExecutor:
    """Owns the worker pool and publishes shared-memory graph images."""

    def __init__(
        self,
        workers: int,
        parallel_threshold: int,
        dense_budget_bytes: int = DENSE_BUDGET_BYTES,
    ) -> None:
        self.workers = int(workers)
        self.parallel_threshold = int(parallel_threshold)
        self.dense_budget_bytes = int(dense_budget_bytes)
        self._pool = None
        self._next_key = 0
        self._closed = False

    # ------------------------------------------------------------------ #
    # gating
    # ------------------------------------------------------------------ #

    def wants_scan(self, n: int, m: int) -> bool:
        """Shard the support scan when the edge count crosses the threshold."""
        return not self._closed and m >= max(1, self.parallel_threshold)

    # ------------------------------------------------------------------ #
    # pool / image management
    # ------------------------------------------------------------------ #

    @property
    def pool(self):
        if self._pool is None:
            from .pool import WorkerPool

            self._pool = WorkerPool(self.workers)
        return self._pool

    @contextlib.contextmanager
    def published(self, graph) -> Iterator[SharedGraphImage]:
        """Publish *graph*'s CSR image to the workers for the scope.

        Used once per sharded scan; the image is dropped by the workers
        and destroyed on exit, so live shared memory never exceeds the
        one scan in flight.
        """
        key = self._next_key
        self._next_key += 1
        image = publish_graph(key, graph, dense_budget_bytes=self.dense_budget_bytes)
        try:
            self.pool.publish(key, image.descriptors)
            yield image
        finally:
            if self._pool is not None:
                self._pool.drop(key)
            image.destroy()

    def shutdown(self) -> None:
        """Tear down the pool (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __del__(self):  # pragma: no cover - GC-order dependent
        # Backstop for ad-hoc contexts nobody closes: stop the workers.
        try:
            self.shutdown()
        except Exception:
            pass


#: Ambient stack of active executors; innermost (latest) wins.
_ACTIVE: List[ParallelExecutor] = []


def active_executor() -> Optional[ParallelExecutor]:
    """The executor leaf kernels should shard onto, or ``None`` (serial)."""
    return _ACTIVE[-1] if _ACTIVE else None


@contextlib.contextmanager
def executor_scope(executor: Optional[ParallelExecutor]):
    """Make *executor* ambient for the scope (no-op when ``None``)."""
    if executor is None:
        yield None
        return
    _ACTIVE.append(executor)
    try:
        yield executor
    finally:
        try:
            _ACTIVE.remove(executor)
        except ValueError:  # pragma: no cover - defensive
            pass
