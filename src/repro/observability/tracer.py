"""Structured tracing: nested spans with exact charged-I/O attribution.

The paper's tables attribute block I/Os *per algorithm phase*; end-of-run
:class:`~repro.storage.IOStats` totals cannot localise a regression like
the file backend's 8.1x overhead. A :class:`Tracer` closes that gap by
recording a tree of **spans** — phase (``semi-binary``) → kernel
(``support_scan``, ``probe``) → device op class (``checkpoint.save``) —
where every span carries the delta, between its open and its close, of:

* the charged :class:`~repro.storage.IOStats` ledger,
* the per-extent ``(read_ios, write_ios)`` breakdown,
* physical bytes / fsyncs (file backend only),
* block-touch counts per extent (cache attribution: a *miss* is a
  charged read, a *hit* is a touch that charged nothing), and
* wall-clock time.

Because every number is a delta of the same counters the equivalence
guards already pin down, span I/O sums **exactly** to run totals — there
is no sampling and no estimation.

Call sites do not thread a tracer through signatures. A module-level
*ambient* stack holds the active tracer, and every span in the library
opens through the one free function :func:`trace_span`. When nothing is
tracing it returns a shared :func:`contextlib.nullcontext` — the off
switch builds no span, no snapshot and no generator frame.

>>> tracer = Tracer()
>>> tracer.start()
>>> with tracer.span("phase-a", kind="phase"):
...     with trace_span("kernel-b"):
...         pass
>>> tracer.finish()
>>> [r["name"] for r in tracer.records if r["type"] == "span"]
['kernel-b', 'phase-a']
"""

from __future__ import annotations

import contextlib
import time
from typing import Any, Callable, ContextManager, Dict, List, Optional

__all__ = ["Span", "Tracer", "active_tracer", "trace_span"]

#: Trace file format version stamped into the header record.
TRACE_VERSION = 1


class Span:
    """One node of the span tree, and its own context manager.

    Entering it snapshots the tracer's counters and pushes it as a child
    of the innermost open span; leaving it closes any inner span an
    enclosed scope leaked, then emits its record of deltas.
    """

    __slots__ = (
        "tracer", "span_id", "parent_id", "name", "kind", "attrs",
        "_t0", "_stats_before", "_extents_before", "_touches_before",
    )

    def __init__(
        self, tracer: "Tracer", name: str, kind: str, attrs: Dict[str, Any]
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.kind = kind
        self.attrs = attrs

    def __enter__(self) -> "Span":
        tracer = self.tracer
        stack = tracer._stack
        self.parent_id = stack[-1].span_id if stack else None
        self.span_id = tracer._next_id
        tracer._next_id += 1
        self._t0 = tracer._clock()
        stats = tracer._stats_provider
        self._stats_before = stats().snapshot() if stats is not None else None
        self._extents_before = dict(tracer._extents_provider())
        self._touches_before = dict(tracer._touches_provider())
        stack.append(self)
        return self

    def __exit__(self, *_exc) -> None:
        tracer = self.tracer
        stack = tracer._stack
        # Unwind to *this* span even if an inner scope leaked one; a span
        # that finish() already closed leaves the stack without it.
        while stack and stack[-1] is not self:
            tracer._end()
        if stack:
            tracer._end()


def _diff_extents(
    before: Dict[str, tuple], after: Dict[str, tuple]
) -> Dict[str, List[int]]:
    """Per-extent (read, write) delta, keeping only extents that moved."""
    delta = {}
    for name, (reads, writes) in after.items():
        base = before.get(name, (0, 0))
        dr, dw = reads - base[0], writes - base[1]
        if dr or dw:
            delta[name] = [dr, dw]
    return delta


def _diff_touches(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    delta = {}
    for name, count in after.items():
        moved = count - before.get(name, 0)
        if moved:
            delta[name] = moved
    return delta


class Tracer:
    """Collects span records; optionally streams them to a sink.

    Parameters
    ----------
    sink:
        Callable invoked with each completed record dict (e.g. a
        :class:`~repro.observability.TraceWriter`'s ``write``). Records
        also accumulate on :attr:`records`, so an in-memory tracer needs
        no sink at all.
    clock:
        Monotonic time source; injectable for deterministic tests.

    Lifecycle: :meth:`start` pushes the tracer onto the ambient stack and
    emits the header; :meth:`finish` closes any spans left open, emits the
    ``trace_end`` totals record, and pops the stack. Binding to an
    :class:`~repro.engine.ExecutionContext` (``context.attach_tracer``)
    does both at the right moments and wires the counter providers below.
    """

    def __init__(
        self,
        sink: Optional[Callable[[Dict[str, Any]], None]] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.sink = sink
        self.records: List[Dict[str, Any]] = []
        self._clock = clock
        self._next_id = 1
        self._stack: List[Span] = []
        self._started = False
        self._finished = False
        self._t_start = 0.0
        # Counter providers, wired by ExecutionContext.attach_tracer.
        # Each returns the *live* value; spans snapshot/diff them.
        self._stats_provider: Optional[Callable[[], Any]] = None
        self._extents_provider: Callable[[], Dict[str, tuple]] = dict
        self._touches_provider: Callable[[], Dict[str, int]] = dict

    # ------------------------------------------------------------------ #
    # wiring
    # ------------------------------------------------------------------ #

    def bind_providers(
        self,
        stats: Optional[Callable[[], Any]] = None,
        extents: Optional[Callable[[], Dict[str, tuple]]] = None,
        touches: Optional[Callable[[], Dict[str, int]]] = None,
    ) -> None:
        """Install the counter sources spans snapshot (engine-internal)."""
        if stats is not None:
            self._stats_provider = stats
        if extents is not None:
            self._extents_provider = extents
        if touches is not None:
            self._touches_provider = touches

    @property
    def finished(self) -> bool:
        """True once :meth:`finish` ran; a finished tracer accepts nothing."""
        return self._finished

    def start(self, **meta: Any) -> None:
        """Emit the header and make this the ambient tracer (idempotent)."""
        if self._started:
            return
        self._started = True
        self._t_start = self._clock()
        _ACTIVE.append(self)
        self._write({
            "type": "trace_header",
            "version": TRACE_VERSION,
            "meta": meta,
        })

    def finish(self) -> None:
        """Close open spans, emit final totals, leave the ambient stack."""
        if not self._started or self._finished:
            return
        while self._stack:
            self._end()
        self._finished = True
        totals: Dict[str, Any] = {
            "wall": self._clock() - self._t_start,
            "by_extent": {
                name: list(pair) for name, pair in self._extents_provider().items()
            },
            "touches": dict(self._touches_provider()),
        }
        stats = self._stats_provider() if self._stats_provider is not None else None
        if stats is not None:
            totals["io"] = {
                "read_ios": stats.read_ios,
                "write_ios": stats.write_ios,
                "bytes_read": stats.bytes_read,
                "bytes_written": stats.bytes_written,
            }
            if stats.physical is not None:
                totals["physical"] = {
                    "bytes_read": stats.physical.bytes_read,
                    "bytes_written": stats.physical.bytes_written,
                    "fsyncs": stats.physical.fsyncs,
                }
        self._write({"type": "trace_end", "totals": totals})
        try:
            _ACTIVE.remove(self)
        except ValueError:  # pragma: no cover - defensive
            pass

    # ------------------------------------------------------------------ #
    # spans and events
    # ------------------------------------------------------------------ #

    def span(self, name: str, kind: str = "kernel", **attrs: Any) -> Span:
        """A span to enter with ``with``, as a child of the innermost open
        span at the moment it is entered."""
        return Span(self, name, kind, attrs)

    def _end(self) -> None:
        """Close the innermost open span and emit its record."""
        span = self._stack.pop()
        record: Dict[str, Any] = {
            "type": "span",
            "id": span.span_id,
            "parent": span.parent_id,
            "name": span.name,
            "kind": span.kind,
            "t_start": span._t0 - self._t_start,
            "wall": self._clock() - span._t0,
            "by_extent": _diff_extents(span._extents_before, self._extents_provider()),
            "touches": _diff_touches(span._touches_before, self._touches_provider()),
        }
        if span.attrs:
            record["attrs"] = span.attrs
        if span._stats_before is not None:
            delta = self._stats_provider().since(span._stats_before)
            record["io"] = {
                "read_ios": delta.read_ios,
                "write_ios": delta.write_ios,
                "bytes_read": delta.bytes_read,
                "bytes_written": delta.bytes_written,
            }
            if delta.physical is not None:
                record["physical"] = {
                    "bytes_read": delta.physical.bytes_read,
                    "bytes_written": delta.physical.bytes_written,
                    "fsyncs": delta.physical.fsyncs,
                }
        self._write(record)

    def event(self, name: str, payload: Optional[Dict[str, Any]] = None) -> None:
        """Record a point-in-time event inside the current span."""
        self._write({
            "type": "event",
            "name": name,
            "t": self._clock() - self._t_start,
            "span": self._stack[-1].span_id if self._stack else None,
            "payload": payload or {},
        })

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #

    def _write(self, record: Dict[str, Any]) -> None:
        self.records.append(record)
        if self.sink is not None:
            self.sink(record)


#: Ambient stack of started tracers; innermost (latest) wins.
_ACTIVE: List[Tracer] = []


def active_tracer() -> Optional[Tracer]:
    """The tracer leaf code should report to, or ``None`` when not tracing."""
    return _ACTIVE[-1] if _ACTIVE else None


#: What :func:`trace_span` returns when nothing is tracing; entering it
#: binds ``None``.
_OFF = contextlib.nullcontext()


def trace_span(
    name: str, kind: str = "kernel", **attrs: Any
) -> ContextManager[Optional[Span]]:
    """Open a span on the ambient tracer; a free no-op when none is active.

    The one instrumentation primitive of the library — phases, update
    windows, leaf kernels (support scan, probes, peel rounds), WAL
    appends and checkpoint save/load alike: one ``with`` line, zero
    parameters threaded. With no tracer active it returns one shared
    :func:`contextlib.nullcontext`, so an untraced span costs a list
    check and a call.
    """
    if not _ACTIVE:
        return _OFF
    return _ACTIVE[-1].span(name, kind, **attrs)
