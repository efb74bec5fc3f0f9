"""Dynamic ``k_max``-truss maintenance (paper §IV) and the YLJ baselines.

:class:`DynamicMaxTruss` is the maintainer: ``insert``/``delete`` apply one
edge update and ``apply_batch`` a mixed batch, each returning its bill.
:class:`YLJMaintenance` is the Fig 7 baseline, billed through the same
edge-update window.
"""

from .adjacency_file import AdjacencyFile
from .state import DynamicMaxTruss
from .batch import BatchResult
from .checkpoint import save_checkpoint, load_checkpoint
from .ingest import IngestPipeline, IngestStats
from .ylj import YLJMaintenance
from . import workload

__all__ = [
    "AdjacencyFile",
    "DynamicMaxTruss",
    "BatchResult",
    "save_checkpoint",
    "load_checkpoint",
    "IngestPipeline",
    "IngestStats",
    "YLJMaintenance",
    "workload",
]
