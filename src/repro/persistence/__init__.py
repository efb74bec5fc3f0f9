"""Real file-backed persistence for the max-truss engine.

The simulator (:mod:`repro.storage`) remains the executable specification
of the paper's I/O model; this package adds the physical counterpart:

* :class:`FileBlockDevice` — backend ``"file"``: every charged block I/O
  is mirrored as a real ``pread``/``pwrite`` against a spill file, with
  *identical* charged :class:`~repro.storage.IOStats` and new physical
  byte/fsync counters;
* :mod:`~repro.persistence.graph_file` — the ``.rgr`` binary CSR graph
  image (``repro convert``);
* :mod:`~repro.persistence.wal` + :mod:`~repro.persistence.recovery` —
  crash-safe dynamic maintenance (write-ahead log, atomic checkpoints,
  :func:`recover`);
* :mod:`~repro.persistence.faults` — fault injection proving that torn
  records are detected and truncated, never applied.

Recovery symbols are exposed lazily (PEP 562): :mod:`.recovery` imports
the dynamic-maintenance stack, which would cycle back into the engine if
pulled in while ``repro.engine`` itself is still initialising (its
backend table imports the ``file`` device from this package).
"""

from .faults import FaultInjector, SimulatedCrash, corrupt_byte, tear_file
from .file_device import FSYNC_POLICIES, FileBlockDevice
from .graph_file import (
    RGR_EXTENSION,
    RGR_MAGIC,
    RGR_VERSION,
    graph_from_rgr_bytes,
    graph_to_rgr_bytes,
    is_rgr,
    read_rgr,
    write_rgr,
)
from .wal import (
    OP_DELETE,
    OP_INSERT,
    WalRecord,
    WriteAheadLog,
    read_wal,
    repair_wal,
)

_RECOVERY_SYMBOLS = (
    "DurableMaintenance",
    "RecoveryInfo",
    "durable_from_graph",
    "recover",
    "CHECKPOINT_NAME",
    "WAL_NAME",
)

__all__ = [
    "FSYNC_POLICIES",
    "FileBlockDevice",
    "RGR_EXTENSION",
    "RGR_MAGIC",
    "RGR_VERSION",
    "graph_from_rgr_bytes",
    "graph_to_rgr_bytes",
    "is_rgr",
    "read_rgr",
    "write_rgr",
    "OP_DELETE",
    "OP_INSERT",
    "WalRecord",
    "WriteAheadLog",
    "read_wal",
    "repair_wal",
    "FaultInjector",
    "SimulatedCrash",
    "corrupt_byte",
    "tear_file",
    *_RECOVERY_SYMBOLS,
]


def __getattr__(name):
    if name in _RECOVERY_SYMBOLS:
        from . import recovery

        return getattr(recovery, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
