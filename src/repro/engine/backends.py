"""Storage backends: one table from backend name to device class.

Backends decouple *what an algorithm does* from *what storage it charges*.
Every backend is a :class:`~repro.storage.BlockDevice` class built the
same way — block size, pool size, the context's shared
:class:`~repro.storage.IOStats` and the replacement policy — plus the
:class:`~repro.engine.config.EngineConfig` fields its own constructor
takes (the table's second column):

* ``simulated`` — :class:`~repro.storage.BlockDevice`, the block-I/O
  simulator with the vectorized batch accounting;
* ``reference`` — :class:`~repro.storage.ReferenceBlockDevice`, the
  executable scalar spec of the accounting contract (identical counts,
  no fast path);
* ``inmemory`` — :class:`~repro.storage.InMemoryBlockDevice`, null
  charging;
* ``file`` — :class:`~repro.persistence.FileBlockDevice`, which moves
  every charged block through a real spill file, with a charged bill
  identical to ``simulated``.

:data:`~repro.engine.config.BACKENDS` names the rows; config validation
rejects any other name before a device is built.
"""

from __future__ import annotations

from typing import List, Optional

from ..persistence.file_device import FileBlockDevice
from ..storage import (
    BlockDevice,
    InMemoryBlockDevice,
    IOStats,
    ReferenceBlockDevice,
    semi_external_cache_blocks,
)
from .config import BACKENDS, EngineConfig

#: backend name -> (device class, the config fields its constructor takes)
_DEVICES = {
    "simulated": (BlockDevice, ()),
    "reference": (ReferenceBlockDevice, ()),
    "inmemory": (InMemoryBlockDevice, ()),
    "file": (FileBlockDevice, ("data_dir", "fsync_policy")),
}


def list_backends() -> List[str]:
    """Backend names, sorted: the CLI's ``--backend`` choices."""
    return list(BACKENDS)


def make_device(
    config: EngineConfig,
    num_vertices: int,
    stats: Optional[IOStats] = None,
) -> BlockDevice:
    """Build the device the config's backend describes.

    An explicit ``config.cache_blocks`` fixes the pool size; ``None``
    sizes it with :func:`~repro.storage.semi_external_cache_blocks` for
    *num_vertices*.
    """
    cls, own_fields = _DEVICES[config.backend]
    cache_blocks = config.cache_blocks
    if cache_blocks is None:
        cache_blocks = semi_external_cache_blocks(num_vertices, config.block_size)
    return cls(
        config.block_size, cache_blocks, stats=stats, policy=config.cache_policy,
        **{name: getattr(config, name) for name in own_fields},
    )
