"""Execution context: the engine object algorithms actually run against.

An :class:`ExecutionContext` owns the live half of an
:class:`~repro.engine.config.EngineConfig`:

* **device construction** through :func:`~repro.engine.backends.make_device`,
  lazily, sized for the first graph that touches it — and then *shared*: every phase of a
  run (support scan, sort, probes, peel) and every run threaded through
  the same context charges the same device;
* **I/O and memory aggregation** — one :class:`~repro.storage.IOStats`
  and one :class:`~repro.storage.MemoryMeter` for the context's lifetime;
* **work budgets** minted from ``config.work_limit``;
* **structured tracing** — :meth:`attach_tracer` binds a
  :class:`~repro.observability.Tracer` to the context's counters and makes
  it the ambient one, after which every
  :func:`~repro.observability.trace_span` scope (``max_truss`` opens one
  ``phase`` span per method) carries exact charged-I/O, per-extent and
  wall-clock deltas, and device construction becomes a ``device`` event.
  With no tracer attached every span is a shared null context, so the
  charged ledger is bit-identical to an untraced run.

Every algorithm entry point accepts ``context=`` (an ``ExecutionContext``
or a bare ``EngineConfig``) — the only way to choose storage.
"""

from __future__ import annotations

from typing import Optional, Union

from .._util import WorkBudget
from ..errors import DeviceError
from ..observability.tracer import trace_span
from ..storage import BlockDevice, IOStats, MemoryMeter
from .backends import make_device
from .config import EngineConfig

#: What algorithm signatures accept for ``context=``.
ContextLike = Union["ExecutionContext", EngineConfig]


class ExecutionContext:
    """Live engine state: one device, one I/O ledger, one memory meter.

    Parameters
    ----------
    config:
        The recipe; a default :class:`EngineConfig` when omitted.
    readonly:
        When ``True``, the context's device rejects every write-side
        touch (``touch_write`` / ``touch_write_batch`` / ``append_write``
        and therefore ``DiskArray.scatter``) with a
        :class:`~repro.errors.DeviceError`. The serve read path runs each
        query under a readonly context to prove answers never mutate the
        pinned snapshot.

    Example
    -------
    >>> from repro.engine import EngineConfig, ExecutionContext
    >>> context = ExecutionContext(EngineConfig(backend="inmemory"))
    >>> context.device_for(100).stats is context.stats
    True
    """

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        readonly: bool = False,
    ) -> None:
        self.config = config if config is not None else EngineConfig()
        self.readonly = readonly
        self._device: Optional[BlockDevice] = None
        self.stats = IOStats()
        self.memory = MemoryMeter()
        #: Structured tracer bound by :meth:`attach_tracer`; ``None`` off.
        self.tracer = None
        self._closed = False

    # ------------------------------------------------------------------ #
    # device / budget construction
    # ------------------------------------------------------------------ #

    @property
    def device(self) -> Optional[BlockDevice]:
        """The context's device, or ``None`` before first use."""
        return self._device

    def device_for(self, num_vertices: int) -> BlockDevice:
        """The shared device, created on first call by :func:`make_device`.

        *num_vertices* only matters on that first call, and only when
        ``config.cache_blocks`` is ``None`` (semi-external pool
        auto-sizing); afterwards the same device is returned regardless.
        """
        if self._device is None:
            self._device = make_device(
                self.config, num_vertices, stats=self.stats
            )
            if self.readonly:
                self._device.readonly = True
            if self.tracer is not None:
                self._device.enable_touch_counting()
                if not self.tracer.finished:
                    self.tracer.event("device", {
                        "backend": self.config.backend,
                        "block_size": self._device.block_size,
                        "cache_blocks": self._device.cache_blocks,
                        "policy": getattr(
                            self._device, "policy", self.config.cache_policy
                        ),
                    })
        return self._device

    def new_budget(self, explicit: Optional[WorkBudget] = None) -> Optional[WorkBudget]:
        """The work budget for one run: the caller's, else a fresh one
        minted from ``config.work_limit``, else ``None`` (unbounded)."""
        if explicit is not None:
            return explicit
        if self.config.work_limit is not None:
            return WorkBudget(self.config.work_limit)
        return None

    # ------------------------------------------------------------------ #
    # tracing
    # ------------------------------------------------------------------ #

    def attach_tracer(self, tracer) -> "ExecutionContext":
        """Bind a :class:`~repro.observability.Tracer` to this context.

        Wires the tracer's counter providers to the context's shared
        :class:`~repro.storage.IOStats` ledger and (lazily-built) device,
        enables the device's touch tally, and starts the tracer — making
        it the ambient one, so every
        :func:`~repro.observability.trace_span` reports here with no
        parameter threading. :meth:`close` finishes the tracer. Returns
        ``self`` for chaining.
        """
        self.tracer = tracer
        tracer.bind_providers(
            stats=lambda: self.stats,
            extents=lambda: (
                self._device.io_by_extent() if self._device is not None else {}
            ),
            touches=lambda: (
                self._device.touch_counts_by_extent()
                if self._device is not None else {}
            ),
        )
        if self._device is not None:
            self._device.enable_touch_counting()
        tracer.start(engine=self.config.summary())
        return self

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Release the context's resources (idempotent).

        Simulated devices only flush their dirty-block ledger; the
        ``file`` backend additionally fsyncs (per ``config.fsync_policy``)
        and deletes its spill file, so a closed context leaves nothing on
        disk. Safe to call before the device was ever built, and safe to
        call again: a second call is a strict no-op (no re-flush, no
        double tracer finish).
        """
        if self._closed:
            return
        self._closed = True
        if self._device is not None:
            with trace_span("close.flush", kind="device"):
                self._device.close()
            touches = self._device.touch_counts_by_extent()
            if touches:
                # Touch counting ran (tracer attached): publish the final
                # per-extent cache hit ratios as registry gauges.
                from ..observability.metrics import global_metrics

                metrics = global_metrics()
                for name, (reads, _writes) in self._device.io_by_extent().items():
                    touched = touches.get(name, 0)
                    if touched:
                        metrics.gauge("cache.hit_ratio", extent=name).set(
                            max(0, touched - reads) / touched
                        )
        if self.tracer is not None:
            self.tracer.finish()

    def __enter__(self) -> "ExecutionContext":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "live" if self._device is not None else "idle"
        return f"ExecutionContext({self.config.summary()}, {state})"


def resolve_context(context: Optional[ContextLike] = None) -> ExecutionContext:
    """Normalise an algorithm's ``context=`` argument to a context.

    ``None`` gives a fresh default context (its pool sized by
    :func:`~repro.storage.semi_external_cache_blocks`); an :class:`EngineConfig`
    gives a fresh context wrapping it; an :class:`ExecutionContext` is
    returned as is.
    """
    if context is None:
        return ExecutionContext()
    if isinstance(context, EngineConfig):
        return ExecutionContext(context)
    if isinstance(context, ExecutionContext):
        return context
    raise DeviceError(
        f"context must be an ExecutionContext or EngineConfig, got {type(context).__name__}"
    )
