"""Simulated external-memory substrate: block device, disk arrays, sorting.

See DESIGN.md §2 for how this simulator substitutes for the paper's physical
SSD while preserving the I/O-count comparisons the experiments make.
"""

from .stats import IOStats, MemoryMeter, PhysicalIOStats
from .device import (
    BlockDevice,
    InMemoryBlockDevice,
    ReferenceBlockDevice,
    DEFAULT_BLOCK_SIZE,
    DEFAULT_CACHE_BLOCKS,
    count_block_touches,
    semi_external_cache_blocks,
)
from .disk_array import DiskArray
from .external_sort import external_sort, external_argsort_by_key, external_sort_by_key
from .cache_policies import LRUCache, FIFOCache, ClockCache, make_cache

__all__ = [
    "IOStats",
    "MemoryMeter",
    "PhysicalIOStats",
    "BlockDevice",
    "InMemoryBlockDevice",
    "ReferenceBlockDevice",
    "DiskArray",
    "external_sort",
    "external_argsort_by_key",
    "external_sort_by_key",
    "DEFAULT_BLOCK_SIZE",
    "DEFAULT_CACHE_BLOCKS",
    "count_block_touches",
    "semi_external_cache_blocks",
    "LRUCache",
    "FIFOCache",
    "ClockCache",
    "make_cache",
]
