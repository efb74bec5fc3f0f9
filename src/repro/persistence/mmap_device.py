"""The ``mmap`` storage backend: zero-copy payloads, modelled page cache.

:class:`MmapBlockDevice` is the backend that makes the file-backed
numbers honest at scale. The ``file`` backend validates the simulator
against real syscalls by paying one ``pread``/``pwrite`` per *charged*
block — which is exactly why it costs ~7-8x wall-clock and physically
re-reads gigabytes on a 300k-edge run. This device takes the opposite
deal the kernel offers: lay ``numpy.memmap``-style read-only views
straight over ``.rgr`` CSR images (:func:`~repro.persistence.read_rgr_mapped`
+ :meth:`~repro.storage.DiskArray.attach`), serve every gather /
``load_neighbors_batch`` from the shared page cache with **no per-block
syscall**, and account the physical layer with a *tiered cache model*
instead of mirroring each charge.

Charged accounting is inherited **unchanged** from
:class:`~repro.storage.BlockDevice` — :meth:`~repro.storage.BlockDevice.replay`
and all — so ``IOStats`` / ``io_by_extent`` are bit-identical to the
``simulated`` backend by construction (the engine test matrix pins this
for every method × cache policy, dynamic maintenance and the serve
tier). The tiered model is bolted on *after* each successful charge —
a replayed trace's pages visit the tiers in the trace's order — and
never feeds back into the ledger:

* **hot tier** — extents whose names match ``hot_extents`` (substring
  patterns; trussness/tau, heap fields, offset tables by default) are
  pinned: each page faults at most once per eviction epoch and is never
  evicted by any access sequence;
* **cold tier** — every other extent's pages (adjacency, edge table)
  live in an LRU capped at ``cold_cache_mb``.

A miss in both tiers is one estimated page fault:
``physical.page_faults_est += 1`` and ``physical.bytes_read += page_size``.
``physical.bytes_mapped`` totals the regions adopted through
:meth:`adopt_mapping`. Per-extent touch/fault tallies feed the
``cache.hit_ratio{extent=...}`` gauges published when the owning context
closes. See docs/io_model.md, "Charged blocks vs mapped pages".
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np

from ..engine.config import DEFAULT_COLD_CACHE_MB, DEFAULT_HOT_EXTENTS
from ..errors import DeviceError
from ..storage import IOStats, PhysicalIOStats
from ..storage.device import BlockDevice, DEFAULT_BLOCK_SIZE, DEFAULT_CACHE_BLOCKS


class MmapBlockDevice(BlockDevice):
    """A :class:`~repro.storage.BlockDevice` with a tiered physical model.

    Parameters
    ----------
    block_size / cache_blocks / stats / policy:
        As for :class:`~repro.storage.BlockDevice` (the charged model).
    hot_extents:
        Substring patterns naming the pinned extents of the hot tier.
    cold_cache_mb:
        LRU cold-tier capacity in MiB.
    page_size:
        Granularity of the physical model; defaults to *block_size* so
        the fault estimate aligns with the charged geometry.

    Example
    -------
    >>> dev = MmapBlockDevice(block_size=64, cache_blocks=2, cold_cache_mb=1.0)
    >>> eid = dev.allocate("support", 100 * 8)
    >>> dev.touch_read(eid, 0, 8)       # charges 1 read, estimates 1 fault
    >>> (dev.stats.read_ios, dev.physical.page_faults_est)
    (1, 1)
    >>> dev.touch_read(eid, 0, 8)       # cold-tier hit: no new fault
    >>> dev.physical.page_faults_est
    1
    """

    def __init__(
        self,
        block_size: int = DEFAULT_BLOCK_SIZE,
        cache_blocks: int = DEFAULT_CACHE_BLOCKS,
        stats: Optional[IOStats] = None,
        policy: str = "lru",
        hot_extents: Tuple[str, ...] = DEFAULT_HOT_EXTENTS,
        cold_cache_mb: float = DEFAULT_COLD_CACHE_MB,
        page_size: Optional[int] = None,
    ) -> None:
        super().__init__(block_size, cache_blocks, stats=stats, policy=policy)
        if cold_cache_mb <= 0:
            raise DeviceError(
                f"cold_cache_mb must be positive, got {cold_cache_mb}"
            )
        self.hot_extents = tuple(hot_extents)
        self.cold_cache_mb = float(cold_cache_mb)
        self.page_size = int(page_size) if page_size else block_size
        if self.page_size <= 0:
            raise DeviceError(
                f"page_size must be positive, got {self.page_size}"
            )
        self.physical = PhysicalIOStats()
        self.stats.physical = self.physical
        #: extent ids classified hot at allocation time.
        self._hot_ids = set()
        #: hot tier: faulted (extent, page) pairs, pinned until epoch end.
        self._hot_resident = set()
        #: cold tier: LRU of (extent, page) pairs.
        self._cold: "OrderedDict[Tuple[int, int], None]" = OrderedDict()
        self._cold_capacity = max(
            1, int(self.cold_cache_mb * 2**20) // self.page_size
        )
        #: per-extent-name [page touches, page faults] (hit-ratio gauges).
        self._page_tallies: Dict[str, list] = {}
        #: adopted zero-copy views: extent id -> view (pins the mapping).
        self._mapped_views: Dict[int, np.ndarray] = {}
        self._cold_evictions = 0
        self._epoch = 0

    # ------------------------------------------------------------------ #
    # extent classification and mapped regions
    # ------------------------------------------------------------------ #

    def _is_hot(self, name: str) -> bool:
        return any(pattern in name for pattern in self.hot_extents)

    def allocate(self, name: str, nbytes: int) -> int:
        extent = super().allocate(name, nbytes)
        if self._is_hot(name):
            self._hot_ids.add(extent)
        return extent

    def free(self, extent: int) -> None:
        super().free(extent)
        self._hot_ids.discard(extent)
        self._mapped_views.pop(extent, None)
        self._hot_resident = {
            key for key in self._hot_resident if key[0] != extent
        }
        for key in [key for key in self._cold if key[0] == extent]:
            del self._cold[key]

    def adopt_mapping(self, extent: int, view: np.ndarray) -> None:
        """Record a zero-copy view adopted for *extent*.

        Mapping is free — ``bytes_mapped`` counts the laid-over region,
        while bytes only *move* when the tiered model faults a page.
        Holding the view also pins the underlying ``mmap`` for the
        extent's lifetime.
        """
        if extent not in self._extents:
            raise DeviceError(f"unknown extent id {extent}")
        self._mapped_views[extent] = view
        self.physical.bytes_mapped += int(view.nbytes)

    @property
    def mapped_extent_count(self) -> int:
        """Number of live extents served from adopted mapped views."""
        return len(self._mapped_views)

    # ------------------------------------------------------------------ #
    # the tiered physical model (never feeds back into the ledger)
    # ------------------------------------------------------------------ #

    def _tally(self, extent: int) -> list:
        name = self._extent_names.get(extent, "?")
        tally = self._page_tallies.get(name)
        if tally is None:
            tally = self._page_tallies[name] = [0, 0]
        return tally

    def _visit_keys(self, keys) -> None:
        """Run ``(extent, page)`` touches through the tiers, in order, and
        post their faults. Callers collapse consecutive touches of one
        page first: a repeat is a guaranteed hit (the first visit made the
        page resident in its tier), so the collapse is exact for faults;
        the callers' tallies still count every touch, so hit ratios keep
        the scalar denominator."""
        faults: Dict[int, int] = {}
        hot_ids = self._hot_ids
        resident = self._hot_resident
        cold = self._cold
        capacity = self._cold_capacity
        for key in keys:
            if key[0] in hot_ids:
                if key in resident:
                    continue
                resident.add(key)
            else:
                if key in cold:
                    cold.move_to_end(key)
                    continue
                cold[key] = None
                if len(cold) > capacity:
                    cold.popitem(last=False)
                    self._cold_evictions += 1
            faults[key[0]] = faults.get(key[0], 0) + 1
        for extent, count in faults.items():
            self._tally(extent)[1] += count
            self.physical.page_faults_est += count
            self.physical.bytes_read += count * self.page_size

    def _visit_span(self, extent: int, offset: int, nbytes: int) -> None:
        if nbytes <= 0:
            return
        first = offset // self.page_size
        last = (offset + nbytes - 1) // self.page_size
        self._tally(extent)[0] += last - first + 1
        self._visit_keys([(extent, page) for page in range(first, last + 1)])

    def _visit_trace(self, extents, offsets, lengths) -> None:
        """Run a validated :meth:`replay` trace's page touches through the
        tiers, in the trace's order: the cold LRU is shared across
        extents, so the interleaving matters."""
        page = self.page_size
        first = offsets // page
        spans = (offsets + lengths - 1) // page - first + 1
        access = np.repeat(np.arange(offsets.size, dtype=np.int64), spans)
        starts = np.cumsum(spans) - spans
        pages = np.arange(access.size, dtype=np.int64) - starts[access] + first[access]
        touched = (
            np.full(access.size, extents, dtype=np.int64)
            if np.ndim(extents) == 0 else extents[access]
        )
        for extent, count in zip(*np.unique(touched, return_counts=True)):
            self._tally(int(extent))[0] += int(count)
        keep = np.ones(pages.size, dtype=bool)
        keep[1:] = (pages[1:] != pages[:-1]) | (touched[1:] != touched[:-1])
        self._visit_keys(zip(touched[keep].tolist(), pages[keep].tolist()))

    # ------------------------------------------------------------------ #
    # charged entry points: charge first (bit-identical), then model
    # ------------------------------------------------------------------ #

    def touch_read(self, extent: int, offset: int, nbytes: int) -> None:
        super().touch_read(extent, offset, nbytes)
        self._visit_span(extent, offset, nbytes)

    def touch_write(self, extent: int, offset: int, nbytes: int) -> None:
        super().touch_write(extent, offset, nbytes)
        self._visit_span(extent, offset, nbytes)

    def append_write(self, extent: int, offset: int, nbytes: int) -> None:
        super().append_write(extent, offset, nbytes)
        self._visit_span(extent, offset, nbytes)

    def _replay_trace(self, extents, offsets, lengths, writes) -> None:
        super()._replay_trace(extents, offsets, lengths, writes)
        self._visit_trace(extents, offsets, lengths)

    # ------------------------------------------------------------------ #
    # epochs, introspection, lifecycle
    # ------------------------------------------------------------------ #

    @property
    def epoch(self) -> int:
        """Eviction-epoch counter: bumped by :meth:`drop_cache`. Within
        one epoch a pinned page faults at most once; cold pages fault at
        most once while they stay resident."""
        return self._epoch

    @property
    def cold_evictions(self) -> int:
        """Cold-tier LRU evictions performed so far."""
        return self._cold_evictions

    @property
    def hot_resident_pages(self) -> int:
        """Pages currently pinned in the hot tier."""
        return len(self._hot_resident)

    @property
    def cold_resident_pages(self) -> int:
        """Pages currently resident in the cold LRU tier."""
        return len(self._cold)

    def hot_extent_names(self) -> Tuple[str, ...]:
        """Names of live extents classified hot (sorted)."""
        return tuple(sorted(
            self._extent_names[extent]
            for extent in self._hot_ids if extent in self._extents
        ))

    def physical_cache_stats(self) -> Dict[str, Tuple[int, int]]:
        """Per-extent-name ``(page_touches, page_faults)`` tallies."""
        return {
            name: (touches, faults)
            for name, (touches, faults) in sorted(self._page_tallies.items())
        }

    def physical_hit_ratios(self) -> Dict[str, float]:
        """Per-extent hit ratio of the tiered model (touches that did not
        fault); feeds the ``cache.hit_ratio{extent=...}`` gauges."""
        return {
            name: (touches - faults) / touches
            for name, (touches, faults) in sorted(self._page_tallies.items())
            if touches
        }

    def drop_cache(self) -> None:
        """Flush the charged pool and start a fresh eviction epoch: both
        physical tiers are emptied (the cold-cache experiment knob is the
        one legitimate way a pinned page leaves the hot tier)."""
        super().drop_cache()
        self._hot_resident.clear()
        self._cold.clear()
        self._epoch += 1

    def close(self) -> None:
        """Flush and release: dropping the adopted views un-pins any
        ``.rgr`` mapping held solely by this device."""
        super().close()
        self._mapped_views.clear()
        self._hot_resident.clear()
        self._cold.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MmapBlockDevice(block_size={self.block_size}, "
            f"cache_blocks={self.cache_blocks}, policy={self.policy!r}, "
            f"hot={self.hot_extents!r}, cold_cache_mb={self.cold_cache_mb:g}, "
            f"mapped={len(self._mapped_views)})"
        )

