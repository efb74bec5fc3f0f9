"""Exception hierarchy for the :mod:`repro` library.

All library-raised exceptions derive from :class:`ReproError`, so callers can
catch one type to handle any library failure while still letting programming
errors (``TypeError``, ``ValueError`` from numpy, ...) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphFormatError(ReproError):
    """An edge-list file or binary graph image could not be parsed."""


class DeviceError(ReproError):
    """Invalid operation on a :class:`repro.storage.BlockDevice`."""


class ArrayBoundsError(DeviceError, IndexError):
    """A :class:`repro.storage.DiskArray` access fell outside the array."""


class HeapError(ReproError):
    """Invalid operation on a heap structure (linear-heap / dynamic-heap)."""


class HeapEmptyError(HeapError):
    """``pop``/``top`` on an empty heap."""


class CapacityError(HeapError):
    """A memory-capacity constraint of a structure was violated."""


class NotComputedError(ReproError):
    """A result attribute was read before the producing phase ran."""


class WorkLimitExceeded(ReproError):
    """An algorithm exceeded its configured work cap.

    Benchmarks use this to emulate the paper's 48-hour "INF" timeouts at
    reproduction scale: an algorithm that blows past its operation budget is
    reported as ``INF`` instead of stalling the harness.
    """

    def __init__(self, limit: int, message: str = "") -> None:
        super().__init__(message or f"work limit of {limit} operations exceeded")
        self.limit = limit


class UnknownDatasetError(ReproError, KeyError):
    """A dataset name was not found in the stand-in registry."""


class UnknownMethodError(ReproError, KeyError):
    """An algorithm name passed to a dispatch facade was not recognised."""


class TraceFormatError(ReproError):
    """A trace file could not be parsed as length-framed JSONL records."""


class IngestError(ReproError):
    """Invalid operation on an :class:`repro.dynamic.ingest.IngestPipeline`
    (submit after close, misuse of window mode, a batch the sink rejected).

    For a rejected batch, ``dropped`` lists the batch's submitted events
    as ``(kind, u, v)``, in submission order; it is empty otherwise.
    """

    dropped = ()


class ServeError(ReproError):
    """A query-service request could not be answered (bad request, unknown
    operation, query timeout, server shutting down)."""
