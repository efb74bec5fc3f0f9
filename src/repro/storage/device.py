"""Simulated block device with an LRU page cache and exact I/O accounting.

The paper's external-memory model (Aggarwal & Vitter) charges one I/O for
every block of ``B`` bytes moved between disk and memory. This module
implements that model in-process:

* a :class:`BlockDevice` owns an LRU cache of *cache_blocks* block frames;
* data structures (``DiskArray``, graphs, heaps) register *extents* — named,
  block-aligned regions — and route every element access through
  :meth:`BlockDevice.touch_read` / :meth:`BlockDevice.touch_write`;
* touching a non-resident block charges one read I/O; evicting or flushing a
  dirty block charges one write I/O.

The simulator tracks residency and dirtiness rather than shuttling byte
buffers: payload bytes live in the owning structure's numpy arrays. This
keeps pure-Python overhead tolerable while preserving exactly the quantity
the paper's experiments compare — block I/O counts (see DESIGN.md §2).
"""

from __future__ import annotations

import itertools
from collections import Counter
from operator import itemgetter
from typing import Dict, Tuple

import numpy as np

from ..errors import DeviceError
from .cache_policies import make_cache
from .stats import IOStats

#: Default block size, matching the paper's experimental setup (4 KiB pages).
DEFAULT_BLOCK_SIZE = 4096

#: Default number of cached block frames (= 4 MiB of buffer pool at 4 KiB).
DEFAULT_CACHE_BLOCKS = 1024

#: Batches at or below this size take the scalar loop: the numpy setup of
#: the vectorized path costs more than it saves on a handful of accesses.
#: Purely a latency knob — both sides charge identical I/O.
_SMALL_BATCH = 8


def count_block_touches(offsets, lengths, block_size: int) -> int:
    """Blocks spanned by each ``(offset, nbytes)`` access, summed.

    The vectorized closed form of what :meth:`BlockDevice.touch_read` (and
    :meth:`BlockDevice.replay`, per access) adds to the touch tally when
    touch counting is enabled: an access spanning bytes ``[o, o + l)``
    touches ``(o + l - 1) // B - o // B + 1`` blocks (zero-length accesses
    touch none). Tests use it to predict a trace's tally without a device.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    if np.ndim(lengths) == 0:
        lengths = np.full(offsets.shape, int(lengths), dtype=np.int64)
    else:
        lengths = np.asarray(lengths, dtype=np.int64)
    if offsets.size == 0:
        return 0
    nonzero = lengths > 0
    if not nonzero.all():
        offsets, lengths = offsets[nonzero], lengths[nonzero]
        if offsets.size == 0:
            return 0
    spans = (offsets + lengths - 1) // block_size - offsets // block_size + 1
    return int(spans.sum())


def semi_external_cache_blocks(num_vertices: int, block_size: int) -> int:
    """Buffer-pool frames that respect the semi-external model.

    The model allows ``O(n)`` node-indexed state in memory while
    edge-indexed state must live on disk; a buffer pool that holds the
    whole edge file would silently convert every algorithm into an
    in-memory one and erase the I/O differences the paper measures. The
    pool is ``32 * n`` bytes (four node arrays of 8-byte cells), at least
    64 KiB and at least 8 frames.
    """
    cache_bytes = max(64 * 1024, 32 * max(num_vertices, 1))
    return max(8, cache_bytes // block_size)


def _per_extent(keys) -> Dict[int, int]:
    """Count ``(extent, block)`` keys per extent."""
    return Counter(map(itemgetter(0), keys))


class BlockDevice:
    """A simulated disk: named extents, an LRU block cache, I/O counters.

    Parameters
    ----------
    block_size:
        Bytes per block (``B`` in the I/O model).
    cache_blocks:
        Number of block frames in the simulated buffer pool (``M/B``).
    stats:
        Optional shared :class:`IOStats`; a fresh one is created if omitted.

    Example
    -------
    >>> dev = BlockDevice(block_size=64, cache_blocks=2)
    >>> eid = dev.allocate("support", 100 * 8)
    >>> dev.touch_read(eid, 0, 8)      # first touch: 1 read I/O
    >>> dev.stats.read_ios
    1
    """

    def __init__(
        self,
        block_size: int = DEFAULT_BLOCK_SIZE,
        cache_blocks: int = DEFAULT_CACHE_BLOCKS,
        stats: IOStats = None,
        policy: str = "lru",
    ) -> None:
        if block_size <= 0:
            raise DeviceError(f"block_size must be positive, got {block_size}")
        if cache_blocks <= 0:
            raise DeviceError(f"cache_blocks must be positive, got {cache_blocks}")
        self.block_size = block_size
        self.cache_blocks = cache_blocks
        self.stats = stats if stats is not None else IOStats()
        #: When set, every write-side touch raises :class:`DeviceError`.
        #: The serve read path flips this on to prove queries cannot mutate
        #: a published snapshot (see ``ExecutionContext(readonly=True)``).
        self.readonly = False
        # extent id -> (name, size in bytes)
        self._extents: Dict[int, Tuple[str, int]] = {}
        self._extent_names: Dict[int, str] = {}
        self._next_extent = 0
        # buffer pool: (extent, block index) -> dirty flag, managed by a
        # pluggable replacement policy (lru / fifo / clock).
        self.policy = policy
        self._cache = make_cache(policy, cache_blocks)
        # per-extent-name [read_ios, write_ios] breakdown
        self._extent_io: Dict[str, list] = {}
        # Optional per-extent-name block-touch tally for cache attribution
        # (a touch that charged no read was a hit). ``None`` — the default —
        # keeps every hot path on its historical branch: tracing cannot
        # perturb the charged ledger unless explicitly enabled.
        self._touch_counts: Dict[str, int] = None

    # ------------------------------------------------------------------ #
    # extent management
    # ------------------------------------------------------------------ #

    def allocate(self, name: str, nbytes: int) -> int:
        """Register an extent of *nbytes* and return its id."""
        if nbytes < 0:
            raise DeviceError(f"extent size must be non-negative, got {nbytes}")
        extent = self._next_extent
        self._next_extent += 1
        self._extents[extent] = (name, nbytes)
        self._extent_names[extent] = name
        return extent

    def free(self, extent: int) -> None:
        """Drop an extent and evict its cached blocks without write-back.

        Freeing models deleting a scratch file: dirty pages of a deleted
        file never reach the platter, so no write I/O is charged.
        """
        if extent not in self._extents:
            raise DeviceError(f"unknown extent id {extent}")
        del self._extents[extent]
        stale = [key for key, _dirty in self._cache.items() if key[0] == extent]
        for key in stale:
            self._cache.discard(key)

    def grow(self, extent: int, nbytes: int) -> None:
        """Enlarge an extent (models a file growing at its tail)."""
        if extent not in self._extents:
            raise DeviceError(f"unknown extent id {extent}")
        name, size = self._extents[extent]
        if nbytes < size:
            raise DeviceError(f"cannot shrink extent {name!r} ({size} -> {nbytes})")
        self._extents[extent] = (name, nbytes)

    def extent_size(self, extent: int) -> int:
        """Size in bytes of a registered extent."""
        try:
            return self._extents[extent][1]
        except KeyError:
            raise DeviceError(f"unknown extent id {extent}") from None

    @property
    def used_bytes(self) -> int:
        """Total bytes across live extents (simulated disk usage)."""
        return sum(size for _, size in self._extents.values())

    # ------------------------------------------------------------------ #
    # cache mechanics
    # ------------------------------------------------------------------ #

    def _block_range(self, extent: int, offset: int, nbytes: int) -> range:
        if extent not in self._extents:
            raise DeviceError(f"unknown extent id {extent}")
        size = self._extents[extent][1]
        if offset < 0 or nbytes < 0 or offset + nbytes > size:
            raise DeviceError(
                f"access [{offset}, {offset + nbytes}) outside extent of {size} bytes"
            )
        if nbytes == 0:
            return range(0)
        first = offset // self.block_size
        last = (offset + nbytes - 1) // self.block_size
        return range(first, last + 1)

    def enable_touch_counting(self) -> None:
        """Start tallying block touches per extent (tracer attribution).

        Touches are app-level block accesses: every block visited by a
        ``touch_read`` / ``touch_write`` (batch forms count the expanded
        per-block sequence, i.e. exactly what the scalar loop would
        visit) and every block of an ``append_write``. Combined with the
        charged read count, they attribute the cache: *misses* are the
        charged reads, *hits* are the touches that charged nothing.
        Counting never feeds back into the charged ledger.
        """
        if self._touch_counts is None:
            self._touch_counts = {}

    def touch_counts_by_extent(self) -> Dict[str, int]:
        """Snapshot of the per-extent touch tally (empty when disabled)."""
        return dict(self._touch_counts) if self._touch_counts is not None else {}

    def _bump_touches(self, extent: int, count: int) -> None:
        name = self._extent_names.get(extent, "?")
        self._touch_counts[name] = self._touch_counts.get(name, 0) + count

    def _charge_read(self, extent: int) -> None:
        self.stats.read_ios += 1
        self.stats.bytes_read += self.block_size
        self._extent_io.setdefault(self._extent_names.get(extent, "?"), [0, 0])[0] += 1

    def _charge_write(self, extent: int) -> None:
        self.stats.write_ios += 1
        self.stats.bytes_written += self.block_size
        self._extent_io.setdefault(self._extent_names.get(extent, "?"), [0, 0])[1] += 1

    def _charge_read_block(self, key: Tuple[int, int]) -> None:
        """Charge one read of a specific block.

        The scalar paths route per-block reads through here so a physical
        backend (:class:`~repro.persistence.FileBlockDevice`) can move the
        actual block while charging identically. The base implementation
        only posts the counters.
        """
        self._charge_read(key[0])

    def _charge_write_block(self, key: Tuple[int, int]) -> None:
        """Charge one write of a specific block (see :meth:`_charge_read_block`)."""
        self._charge_write(key[0])

    def _charge_counts(self, counts: Dict[int, int], read: bool) -> None:
        """Charge ``counts[extent]`` reads (or writes) per extent.

        Counters are order-insensitive, so :meth:`replay` collects its
        charges and posts them here once instead of per block.
        """
        side = 0 if read else 1
        for extent, count in counts.items():
            if read:
                self.stats.read_ios += count
                self.stats.bytes_read += count * self.block_size
            else:
                self.stats.write_ios += count
                self.stats.bytes_written += count * self.block_size
            self._extent_io.setdefault(
                self._extent_names.get(extent, "?"), [0, 0]
            )[side] += count

    def _insert_block(self, key: Tuple[int, int], dirty: bool) -> None:
        """Admit a block to the pool, evicting (and charging) if full."""
        evicted = self._cache.insert(key, dirty)
        if evicted is not None and evicted[1]:
            self._charge_write_block(evicted[0])

    def _touch_block(self, key: Tuple[int, int], write: bool) -> None:
        cached = self._cache.lookup(key)
        if cached is None:
            # Miss: fetch block from disk.
            self._charge_read_block(key)
            self._insert_block(key, dirty=write)
        elif write and not cached:
            self._cache.set_dirty(key, True)

    def _require_writable(self) -> None:
        if self.readonly:
            raise DeviceError(
                "write touch on a read-only device (snapshot queries must "
                "not mutate served state)"
            )

    def touch_read(self, extent: int, offset: int, nbytes: int) -> None:
        """Charge the I/O for reading *nbytes* at *offset* of *extent*."""
        blocks = self._block_range(extent, offset, nbytes)
        if self._touch_counts is not None and len(blocks):
            self._bump_touches(extent, len(blocks))
        for block in blocks:
            self._touch_block((extent, block), write=False)

    def touch_write(self, extent: int, offset: int, nbytes: int) -> None:
        """Charge the I/O for writing *nbytes* at *offset* of *extent*.

        A write to a non-resident block first faults it in (read-modify-
        write), except when the write covers the whole block, in which case
        no read is charged.
        """
        self._require_writable()
        block_size = self.block_size
        blocks = self._block_range(extent, offset, nbytes)
        if self._touch_counts is not None and len(blocks):
            self._bump_touches(extent, len(blocks))
        for block in blocks:
            key = (extent, block)
            block_start = block * block_size
            covers_block = offset <= block_start and offset + nbytes >= block_start + block_size
            cached = self._cache.lookup(key)
            if cached is None:
                if not covers_block:
                    self._charge_read_block(key)
                self._insert_block(key, dirty=True)
            elif not cached:
                self._cache.set_dirty(key, True)

    # ------------------------------------------------------------------ #
    # ordered replay (the fast path)
    # ------------------------------------------------------------------ #

    @staticmethod
    def _normalize_batch(offsets, lengths):
        """Coerce batch operands: offsets to a 1-d int64 array, lengths to
        either an aligned array or a plain int.

        A scalar *lengths* broadcasts over *offsets* (the uniform-element
        case of ``DiskArray.gather``/``scatter``) and is kept scalar so the
        hot path never materialises a constant array.
        """
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.ndim == 0:
            offsets = offsets.reshape(1)
        if isinstance(lengths, (int, np.integer)) or np.ndim(lengths) == 0:
            return offsets, int(lengths)
        lengths = np.asarray(lengths, dtype=np.int64)
        if offsets.shape != lengths.shape:
            raise DeviceError("batch touch: offsets and lengths length mismatch")
        return offsets, lengths

    def _checked_trace(self, extents, offsets, lengths, writes):
        """Normalise and validate a :meth:`replay` trace.

        *extents*, *lengths* and *writes* may each be a scalar (kept
        scalar, broadcast over *offsets*) or an array aligned with
        *offsets*. Every access is checked before anything is charged:
        the extent is known, the access lies inside it, and no access
        writes to a read-only device. Returns the trace with empty
        accesses dropped, or ``None`` when nothing remains to touch.
        """
        offsets, lengths = self._normalize_batch(offsets, lengths)
        if isinstance(extents, (int, np.integer)):
            extents = int(extents)
        else:
            extents = np.asarray(extents, dtype=np.int64)
            if extents.shape != offsets.shape:
                raise DeviceError("replay: extents and offsets length mismatch")
        if isinstance(writes, (bool, np.bool_)):
            writes = bool(writes)
            any_write = writes
        else:
            writes = np.asarray(writes, dtype=bool)
            if writes.shape != offsets.shape:
                raise DeviceError("replay: writes and offsets length mismatch")
            any_write = bool(writes.any())
        if offsets.size == 0:
            return None
        if any_write:
            self._require_writable()
        if isinstance(extents, int):
            if extents not in self._extents:
                raise DeviceError(f"unknown extent id {extents}")
            size = self._extents[extents][1]
            outside = int((offsets + lengths).max()) > size
        else:
            # Ids come from a counter, so a bincount over them is small;
            # range-check first (a negative id cannot be counted).
            low, high = int(extents.min()), int(extents.max())
            if low < 0 or high >= self._next_extent:
                raise DeviceError(f"unknown extent id {low if low < 0 else high}")
            known = np.flatnonzero(np.bincount(extents)).tolist()
            for extent in known:
                if extent not in self._extents:
                    raise DeviceError(f"unknown extent id {extent}")
            sizes = np.zeros(high + 1, dtype=np.int64)
            sizes[known] = [self._extents[extent][1] for extent in known]
            outside = bool(np.any(offsets + lengths > sizes[extents]))
        scalar_length = isinstance(lengths, int)
        min_length = lengths if scalar_length else int(lengths.min())
        if outside or min_length < 0 or int(offsets.min()) < 0:
            raise DeviceError("replay: access outside its extent")
        if min_length == 0:
            if scalar_length:
                return None  # every access is empty
            keep = lengths > 0
            if not keep.any():
                return None
            offsets, lengths = offsets[keep], lengths[keep]
            if not isinstance(extents, int):
                extents = extents[keep]
            if not isinstance(writes, bool):
                writes = writes[keep]
        return extents, offsets, lengths, writes

    def replay(self, extents, offsets, lengths, writes) -> None:
        """Charge an ordered, multi-extent sequence of accesses in one call.

        Access *i* reads (``writes[i]`` false) or writes ``lengths[i]``
        bytes at ``offsets[i]`` of extent ``extents[i]``; any of
        *extents*, *lengths* and *writes* may be a scalar that broadcasts.
        Charges **exactly** what the same sequence of scalar
        :meth:`touch_read` / :meth:`touch_write` calls charges — counters,
        ``io_by_extent`` and the touch tally — and leaves the pool
        (residency, LRU recency, FIFO order, CLOCK reference bits and
        hand, dirty flags) in the identical state. Every access is
        validated first; a bad one raises :class:`DeviceError` with
        nothing charged. :class:`ReferenceBlockDevice` walks the scalar
        calls literally and is the spec the equivalence tests hold this
        to.

        Mechanism: numpy expands the accesses into per-block touches and
        collapses consecutive touches of one block into *runs*. Later
        touches of a run always find the block resident, so a run keeps
        only its first touch's fault flag (a write covering its whole
        block faults nothing in), whether any touch wrote (the dirty bit)
        and whether it repeated (CLOCK's reference bit); the policy's
        ``replay`` loop then applies the runs in order.
        """
        trace = self._checked_trace(extents, offsets, lengths, writes)
        if trace is not None:
            self._replay_trace(*trace)

    def _replay_trace(self, extents, offsets, lengths, writes) -> None:
        """Charge a trace :meth:`_checked_trace` accepted (see :meth:`replay`)."""
        block_size = self.block_size
        ends = offsets + lengths
        first = offsets // block_size
        spans = (ends - 1) // block_size - first + 1
        if int(spans.max()) == 1:
            # Common case: every access falls inside one block.
            blocks, access = first, None
        else:
            # Expand each access into its blocks, in the scalar visit order.
            access = np.repeat(np.arange(offsets.size, dtype=np.int64), spans)
            starts = np.cumsum(spans) - spans
            blocks = np.arange(access.size, dtype=np.int64) - starts[access] + first[access]
        single = isinstance(extents, int)
        touched = extents if single or access is None else extents[access]
        num_blocks = blocks.size
        if num_blocks > 1:
            run_start = np.empty(num_blocks, dtype=bool)
            run_start[0] = True
            np.not_equal(blocks[1:], blocks[:-1], out=run_start[1:])
            if not single:
                run_start[1:] |= touched[1:] != touched[:-1]
            runs = np.flatnonzero(run_start)
        else:
            runs = np.zeros(1, dtype=np.int64)
        if self._touch_counts is not None:
            self._tally_touches(touched, num_blocks)
        run_blocks = blocks[runs]
        # A run repeated when the next run starts more than one touch later.
        repeats = np.empty(runs.size, dtype=bool)
        np.greater(runs[1:] - runs[:-1], 1, out=repeats[:-1])
        repeats[-1] = num_blocks - int(runs[-1]) > 1
        heads = runs if access is None else access[runs]
        if writes is False:
            faults, dirty = itertools.repeat(True), itertools.repeat(False)
        else:
            first_write = True if writes is True else writes[heads]
            block_starts = run_blocks * block_size
            covers = (offsets[heads] <= block_starts) & (
                ends[heads] >= block_starts + block_size
            )
            faults = (~(first_write & covers)).tolist()
            if writes is True:
                dirty = itertools.repeat(True)
            else:
                touched_writes = writes if access is None else writes[access]
                dirty = np.logical_or.reduceat(touched_writes, runs).tolist()
        block_list = run_blocks.tolist()
        if single:
            keys = list(zip(itertools.repeat(extents, len(block_list)), block_list))
        else:
            keys = list(zip(touched[runs].tolist(), block_list))
        charged, evicted = self._cache.replay(keys, faults, dirty, repeats)
        if charged:
            self._charge_counts(
                {extents: len(charged)} if single else _per_extent(charged), read=True
            )
        if evicted:
            self._charge_counts(_per_extent(evicted), read=False)

    def _tally_touches(self, touched, num_blocks: int) -> None:
        """Bump the touch tally by each extent's expanded block count, in
        order of first touch (the order the scalar loop would bump in)."""
        if isinstance(touched, int):
            self._bump_touches(touched, num_blocks)
            return
        extents, first_seen, counts = np.unique(
            touched, return_index=True, return_counts=True
        )
        for position in np.argsort(first_seen, kind="stable").tolist():
            self._bump_touches(int(extents[position]), int(counts[position]))

    def touch_read_batch(self, extent: int, offsets, lengths) -> None:
        """:meth:`touch_read` over many accesses of one extent: the
        single-extent case of :meth:`replay`, with identical charges and
        pool state to the scalar loop. A scalar *lengths* broadcasts."""
        offsets, lengths = self._normalize_batch(offsets, lengths)
        if offsets.size <= _SMALL_BATCH:
            # Tiny batches: the scalar loop beats the numpy setup cost.
            if isinstance(lengths, int):
                for offset in offsets.tolist():
                    self.touch_read(extent, offset, lengths)
            else:
                for offset, nbytes in zip(offsets.tolist(), lengths.tolist()):
                    self.touch_read(extent, offset, nbytes)
            return
        self.replay(extent, offsets, lengths, False)

    def touch_write_batch(self, extent: int, offsets, lengths) -> None:
        """:meth:`touch_write` over many accesses of one extent (see
        :meth:`touch_read_batch`), read-modify-write faults included."""
        self._require_writable()
        offsets, lengths = self._normalize_batch(offsets, lengths)
        if offsets.size <= _SMALL_BATCH:
            if isinstance(lengths, int):
                for offset in offsets.tolist():
                    self.touch_write(extent, offset, lengths)
            else:
                for offset, nbytes in zip(offsets.tolist(), lengths.tolist()):
                    self.touch_write(extent, offset, nbytes)
            return
        self.replay(extent, offsets, lengths, True)

    def append_write(self, extent: int, offset: int, nbytes: int) -> None:
        """Charge sequential append-style writes (no read-before-write)."""
        self._require_writable()
        blocks = self._block_range(extent, offset, nbytes)
        if self._touch_counts is not None and len(blocks):
            self._bump_touches(extent, len(blocks))
        for block in blocks:
            key = (extent, block)
            self._cache.discard(key)
            self._insert_block(key, dirty=True)

    def flush(self) -> None:
        """Write back every dirty cached block (e.g. at algorithm end)."""
        for key, dirty in self._cache.items():
            if dirty:
                self._charge_write_block(key)
                self._cache.set_dirty(key, False)

    def close(self) -> None:
        """Flush and release the device.

        The simulator holds no OS resources, so closing only writes back
        dirty blocks; file-backed devices additionally sync and delete
        their spill file. Safe to call more than once.
        """
        self.flush()

    def io_by_extent(self) -> Dict[str, Tuple[int, int]]:
        """Breakdown ``extent name -> (read_ios, write_ios)``.

        Names aggregate across extents sharing a label (e.g. successive
        probe subgraphs). Counts cover the device's whole lifetime; use
        snapshots of :attr:`stats` for per-phase totals.
        """
        return {
            name: (reads, writes)
            for name, (reads, writes) in sorted(self._extent_io.items())
        }

    def drop_cache(self) -> None:
        """Flush, then empty the cache (experiments that start from a cold pool)."""
        self.flush()
        self._cache.clear()

    @property
    def cached_block_count(self) -> int:
        """Number of blocks currently resident in the buffer pool."""
        return len(self._cache)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BlockDevice(block_size={self.block_size}, cache_blocks={self.cache_blocks}, "
            f"policy={self.policy!r}, extents={len(self._extents)}, cached={len(self._cache)})"
        )


class InMemoryBlockDevice(BlockDevice):
    """A null-charging device: every touch is free, counters stay at zero.

    Extent bookkeeping (allocate / grow / free / bounds) is kept so data
    structures behave identically, but no block ever becomes resident and
    no I/O is charged — the storage-model analogue of running the whole
    computation in memory. This backs the engine's ``inmemory`` backend,
    used for ground-truth answers and CI-speed runs where the I/O bill is
    irrelevant.

    >>> dev = InMemoryBlockDevice(block_size=64, cache_blocks=2)
    >>> eid = dev.allocate("support", 100 * 8)
    >>> dev.touch_read(eid, 0, 8)
    >>> dev.stats.read_ios
    0
    """

    def _check_extent(self, extent: int) -> None:
        if extent not in self._extents:
            raise DeviceError(f"unknown extent id {extent}")

    def touch_read(self, extent: int, offset: int, nbytes: int) -> None:
        self._check_extent(extent)

    def touch_write(self, extent: int, offset: int, nbytes: int) -> None:
        self._require_writable()
        self._check_extent(extent)

    def touch_read_batch(self, extent: int, offsets, lengths) -> None:
        self._check_extent(extent)

    def touch_write_batch(self, extent: int, offsets, lengths) -> None:
        self._require_writable()
        self._check_extent(extent)

    def _replay_trace(self, extents, offsets, lengths, writes) -> None:
        pass  # validated by ``replay``; nothing is charged

    def append_write(self, extent: int, offset: int, nbytes: int) -> None:
        self._require_writable()
        self._check_extent(extent)

    def flush(self) -> None:
        pass

    def drop_cache(self) -> None:
        pass


class ReferenceBlockDevice(BlockDevice):
    """The slow reference implementation of the replay contract.

    :meth:`replay` — and with it every batch touch — validates the trace,
    then walks it as the literal per-access scalar loop. The simulator's
    only contract is block-I/O counts, so :class:`BlockDevice`'s
    run-compressed fast path must charge — and leave the cache in —
    *exactly* what this device does; the
    equivalence guard (``tests/test_batch_equivalence.py``) asserts
    identical :class:`IOStats`, :meth:`io_by_extent`, touch tallies and
    pool state across seeded traces and full algorithm runs for every
    cache policy. Use it when auditing a new access pattern or debugging a
    count mismatch; all benchmarks use the fast path.
    """

    def _replay_trace(self, extents, offsets, lengths, writes) -> None:
        count = offsets.size
        columns = [
            [value] * count if np.ndim(value) == 0 else value.tolist()
            for value in (extents, lengths, writes)
        ]
        for extent, offset, nbytes, write in zip(
            columns[0], offsets.tolist(), columns[1], columns[2]
        ):
            if write:
                self.touch_write(extent, offset, nbytes)
            else:
                self.touch_read(extent, offset, nbytes)
