"""A block device whose blocks live in a real spill file.

:class:`FileBlockDevice` is the ``file`` storage backend: every charged
block read performs an ``os.pread`` of that block from an on-disk spill
file, every charged block write performs an ``os.pwrite``, and fsync
barriers are issued according to the configured policy. The *charged*
counters (:class:`~repro.storage.IOStats`, ``io_by_extent``) are, by
construction, bit-identical to the ``simulated`` backend — the device
inherits the scalar accounting spec of
:class:`~repro.storage.ReferenceBlockDevice` untouched and only mirrors
each charge with a syscall — so the simulator remains the executable
oracle for the I/O bill while this backend adds the physical layer:
``bytes_read`` / ``bytes_written`` / ``fsyncs`` in
:class:`~repro.storage.PhysicalIOStats`.

What is physical and what is not
--------------------------------
The library's data structures keep their payloads in numpy arrays and
route only *accounting* through the device (``touch_read`` carries no
buffer). The spill file therefore stores opaque block images, not the
structures' live bytes: a read moves a real 4 KiB block through the
kernel from the real file, a dirty eviction moves one back, and an
``fsync`` really forces the file to stable storage — the data path is
physically exercised end to end, but the payload content is placeholder.
Published numbers stay simulator-based (see docs/reproduction_guide.md);
this backend exists to validate the simulator against real syscalls and
to measure wall-clock and byte-volume effects of the access patterns.

Layout: each extent owns a block-aligned region of the spill file,
appended at allocation time. ``grow`` extends the last region in place or
relocates the extent to a fresh tail region (contents are placeholder, so
no copy is owed). The file is created inside ``EngineConfig.data_dir``
(or a private temporary directory) and removed on :meth:`close`.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from typing import Optional, Tuple

from ..engine.config import FSYNC_POLICIES
from ..errors import DeviceError
from ..storage import IOStats, PhysicalIOStats, ReferenceBlockDevice
from ..storage.device import DEFAULT_BLOCK_SIZE, DEFAULT_CACHE_BLOCKS


class FileBlockDevice(ReferenceBlockDevice):
    """A :class:`~repro.storage.BlockDevice` that moves real bytes.

    Parameters
    ----------
    block_size / cache_blocks / stats / policy:
        As for :class:`~repro.storage.BlockDevice`.
    data_dir:
        Directory for the spill file. ``None`` creates a private temporary
        directory that is removed with the device.
    fsync_policy:
        ``never`` — no barriers; ``close`` (default) — one fsync when the
        device closes; ``always`` — fsync after every physical block write
        (the durability-honest, slow mode).

    Example
    -------
    >>> dev = FileBlockDevice(block_size=64, cache_blocks=2)
    >>> eid = dev.allocate("support", 100 * 8)
    >>> dev.touch_read(eid, 0, 8)       # charges 1 read I/O *and* preads
    >>> (dev.stats.read_ios, dev.physical.bytes_read)
    (1, 64)
    >>> dev.close()
    """

    def __init__(
        self,
        block_size: int = DEFAULT_BLOCK_SIZE,
        cache_blocks: int = DEFAULT_CACHE_BLOCKS,
        stats: Optional[IOStats] = None,
        policy: str = "lru",
        data_dir: Optional[str] = None,
        fsync_policy: str = "close",
    ) -> None:
        if fsync_policy not in FSYNC_POLICIES:
            raise DeviceError(
                f"unknown fsync policy {fsync_policy!r}; "
                f"known: {', '.join(FSYNC_POLICIES)}"
            )
        super().__init__(block_size, cache_blocks, stats=stats, policy=policy)
        self.fsync_policy = fsync_policy
        self.physical = PhysicalIOStats()
        self.stats.physical = self.physical
        self._own_dir: Optional[str] = None
        if data_dir is None:
            data_dir = tempfile.mkdtemp(prefix="repro-spill-")
            self._own_dir = data_dir
        else:
            os.makedirs(data_dir, exist_ok=True)
        handle, self.path = tempfile.mkstemp(
            prefix="spill-", suffix=".dat", dir=data_dir
        )
        self._fd: Optional[int] = handle
        # extent id -> (first file block, region length in blocks)
        self._regions: dict = {}
        self._tail_blocks = 0
        self._zero_block = bytes(block_size)

    # ------------------------------------------------------------------ #
    # extent regions in the spill file
    # ------------------------------------------------------------------ #

    def _blocks_for(self, nbytes: int) -> int:
        return -(-nbytes // self.block_size)

    def _reserve(self, blocks: int) -> int:
        start = self._tail_blocks
        self._tail_blocks += blocks
        os.ftruncate(self._fd, self._tail_blocks * self.block_size)
        return start

    def allocate(self, name: str, nbytes: int) -> int:
        extent = super().allocate(name, nbytes)
        blocks = self._blocks_for(nbytes)
        self._regions[extent] = (self._reserve(blocks), blocks)
        return extent

    def grow(self, extent: int, nbytes: int) -> None:
        super().grow(extent, nbytes)
        start, blocks = self._regions[extent]
        needed = self._blocks_for(nbytes)
        if needed <= blocks:
            return
        if start + blocks == self._tail_blocks:
            # Last region: extend in place.
            self._tail_blocks = start + needed
            os.ftruncate(self._fd, self._tail_blocks * self.block_size)
            self._regions[extent] = (start, needed)
        else:
            # Relocate to a fresh tail region. Block contents are
            # placeholder images, so nothing is owed a copy; the old
            # region becomes dead space in the (sparse) spill file.
            self._regions[extent] = (self._reserve(needed), needed)

    def free(self, extent: int) -> None:
        super().free(extent)
        self._regions.pop(extent, None)

    def _file_offset(self, key: Tuple[int, int]) -> int:
        start, _blocks = self._regions[key[0]]
        return (start + key[1]) * self.block_size

    # ------------------------------------------------------------------ #
    # physical mirroring of the charged I/O
    # ------------------------------------------------------------------ #
    #
    # The batch entry points are inherited from ReferenceBlockDevice (the
    # literal scalar loop), so *every* charged block read/write funnels
    # through these two hooks with the block identity in hand.

    def _charge_read_block(self, key: Tuple[int, int]) -> None:
        super()._charge_read_block(key)
        data = os.pread(self._fd, self.block_size, self._file_offset(key))
        self.physical.bytes_read += len(data)

    def _charge_write_block(self, key: Tuple[int, int]) -> None:
        super()._charge_write_block(key)
        self.physical.bytes_written += os.pwrite(
            self._fd, self._zero_block, self._file_offset(key)
        )
        if self.fsync_policy == "always":
            os.fsync(self._fd)
            self.physical.fsyncs += 1

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    @property
    def closed(self) -> bool:
        """Whether the device has been closed."""
        return self._fd is None

    def close(self) -> None:
        """Flush dirty blocks, sync per policy, delete the spill file.

        The spill file and any private tmpdir are removed even when the
        final flush or fsync raises (a full disk, a yanked mount): the
        error still propagates, but never with OS resources leaked — and
        a second ``close()`` after such a failure is a clean no-op.
        """
        if self._fd is None:
            return
        try:
            self.flush()
            if self.fsync_policy in ("close", "always"):
                os.fsync(self._fd)
                self.physical.fsyncs += 1
        finally:
            self._dispose()

    def _dispose(self) -> None:
        """Release OS resources without charging any I/O."""
        fd, self._fd = self._fd, None
        if fd is None:
            return
        try:
            os.close(fd)
        except OSError:  # pragma: no cover - defensive
            pass
        try:
            os.unlink(self.path)
        except OSError:  # pragma: no cover - already gone
            pass
        if self._own_dir is not None:
            shutil.rmtree(self._own_dir, ignore_errors=True)

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self._dispose()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self.closed else self.path
        return (
            f"FileBlockDevice(block_size={self.block_size}, "
            f"cache_blocks={self.cache_blocks}, policy={self.policy!r}, "
            f"fsync={self.fsync_policy!r}, file={state})"
        )

