"""I/O and memory accounting primitives.

The paper evaluates algorithms along three axes: wall-clock time, number of
read/write I/Os (in blocks of ``B`` bytes), and peak memory. This module
provides the two meters shared by every component of the library:

* :class:`IOStats` — counts block reads/writes and raw bytes moved. One
  instance is attached to each :class:`repro.storage.BlockDevice`; algorithms
  snapshot/diff it to report per-phase I/O.
* :class:`MemoryMeter` — tracks *model memory*: the bytes of node-indexed
  arrays plus dynamic structures an algorithm keeps resident. This is what
  the paper's ``O(n)`` / ``O(n + capacity)`` theorems bound. (Python RSS is
  dominated by interpreter overhead and would drown the signal.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional
import contextlib


@dataclass
class PhysicalIOStats:
    """Counters for *physical* I/O performed by a file-backed device.

    The charged counters in :class:`IOStats` are the I/O model's bill: one
    I/O per block moved, regardless of backend. These counters are the
    syscall-level truth of the ``file`` backend — bytes that actually went
    through ``os.pread``/``os.pwrite`` plus the ``fsync`` barriers issued.
    A simulated device has none (its :attr:`IOStats.physical` stays
    ``None``); on a :class:`~repro.persistence.FileBlockDevice` they are
    nonzero whenever the charged counters are.
    """

    bytes_read: int = 0
    bytes_written: int = 0
    fsyncs: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.bytes_read = 0
        self.bytes_written = 0
        self.fsyncs = 0

    def snapshot(self) -> "PhysicalIOStats":
        """Return an independent copy of the current counters."""
        return PhysicalIOStats(self.bytes_read, self.bytes_written, self.fsyncs)

    def since(self, earlier: "PhysicalIOStats") -> "PhysicalIOStats":
        """Return the delta between *earlier* (a snapshot) and now."""
        return PhysicalIOStats(
            self.bytes_read - earlier.bytes_read,
            self.bytes_written - earlier.bytes_written,
            self.fsyncs - earlier.fsyncs,
        )

    def merge(self, other: "PhysicalIOStats") -> None:
        """Add *other*'s counters into this one."""
        self.bytes_read += other.bytes_read
        self.bytes_written += other.bytes_written
        self.fsyncs += other.fsyncs

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PhysicalIOStats(MB_read={self.bytes_read / 2**20:.2f}, "
            f"MB_written={self.bytes_written / 2**20:.2f}, fsyncs={self.fsyncs})"
        )


@dataclass
class IOStats:
    """Counters for block-level I/O against a simulated disk.

    Attributes
    ----------
    read_ios:
        Number of block reads (a block touched while not resident in cache).
    write_ios:
        Number of block writes (a dirty block evicted or flushed).
    bytes_read / bytes_written:
        Raw byte volume behind those I/Os.
    physical:
        :class:`PhysicalIOStats` attached by a file-backed device, ``None``
        for purely simulated ones. Excluded from equality: the ``file``
        backend's contract is *identical charged counters* to ``simulated``
        while its physical counters are necessarily different (nonzero).
    """

    read_ios: int = 0
    write_ios: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    physical: Optional[PhysicalIOStats] = field(
        default=None, compare=False, repr=False
    )

    @property
    def total_ios(self) -> int:
        """Total read + write block operations."""
        return self.read_ios + self.write_ios

    def reset(self) -> None:
        """Zero all counters."""
        self.read_ios = 0
        self.write_ios = 0
        self.bytes_read = 0
        self.bytes_written = 0
        if self.physical is not None:
            self.physical.reset()

    def snapshot(self) -> "IOStats":
        """Return an independent copy of the current counters."""
        return IOStats(
            self.read_ios, self.write_ios, self.bytes_read, self.bytes_written,
            physical=None if self.physical is None else self.physical.snapshot(),
        )

    def since(self, earlier: "IOStats") -> "IOStats":
        """Return the delta between *earlier* (a snapshot) and now."""
        physical = None
        if self.physical is not None:
            physical = (
                self.physical.since(earlier.physical)
                if earlier.physical is not None
                else self.physical.snapshot()
            )
        return IOStats(
            self.read_ios - earlier.read_ios,
            self.write_ios - earlier.write_ios,
            self.bytes_read - earlier.bytes_read,
            self.bytes_written - earlier.bytes_written,
            physical=physical,
        )

    def merge(self, other: "IOStats") -> None:
        """Add *other*'s counters into this one (for multi-device runs)."""
        self.read_ios += other.read_ios
        self.write_ios += other.write_ios
        self.bytes_read += other.bytes_read
        self.bytes_written += other.bytes_written
        if other.physical is not None:
            if self.physical is None:
                self.physical = PhysicalIOStats()
            self.physical.merge(other.physical)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IOStats(reads={self.read_ios}, writes={self.write_ios}, "
            f"MB_read={self.bytes_read / 2**20:.2f}, MB_written={self.bytes_written / 2**20:.2f})"
        )


@dataclass
class MemoryMeter:
    """Tracks model memory held by an algorithm, with a high-water mark.

    Components register named allocations (``charge``) and release them
    (``release``); the meter records the peak total. Use
    :meth:`transient` for scope-bound allocations.
    """

    current_bytes: int = 0
    peak_bytes: int = 0
    _allocations: Dict[str, int] = field(default_factory=dict)

    def charge(self, name: str, nbytes: int) -> None:
        """Register (or resize) a named allocation of *nbytes* bytes."""
        if nbytes < 0:
            raise ValueError(f"negative allocation for {name!r}: {nbytes}")
        previous = self._allocations.get(name, 0)
        self._allocations[name] = nbytes
        self.current_bytes += nbytes - previous
        if self.current_bytes > self.peak_bytes:
            self.peak_bytes = self.current_bytes

    def release(self, name: str) -> None:
        """Release a named allocation; unknown names are a no-op."""
        nbytes = self._allocations.pop(name, 0)
        self.current_bytes -= nbytes

    @contextlib.contextmanager
    def transient(self, name: str, nbytes: int) -> Iterator[None]:
        """Context manager charging *nbytes* for the duration of a scope."""
        self.charge(name, nbytes)
        try:
            yield
        finally:
            self.release(name)

    def reset(self) -> None:
        """Drop all allocations and zero the peak."""
        self.current_bytes = 0
        self.peak_bytes = 0
        self._allocations.clear()

    @property
    def peak_mib(self) -> float:
        """Peak model memory in MiB."""
        return self.peak_bytes / 2**20

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"MemoryMeter(current={self.current_bytes}B, peak={self.peak_bytes}B)"
