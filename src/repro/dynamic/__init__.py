"""Dynamic ``k_max``-truss maintenance (paper §IV) and the YLJ baselines."""

from .adjacency_file import AdjacencyFile
from .state import DynamicMaxTruss
from .deletion import delete_edge
from .insertion import insert_edge
from .batch import BatchResult, apply_batch
from .checkpoint import save_checkpoint, load_checkpoint
from .ingest import IngestPipeline, IngestStats
from .ylj import YLJMaintenance
from . import workload

__all__ = [
    "AdjacencyFile",
    "DynamicMaxTruss",
    "delete_edge",
    "insert_edge",
    "BatchResult",
    "apply_batch",
    "save_checkpoint",
    "load_checkpoint",
    "IngestPipeline",
    "IngestStats",
    "YLJMaintenance",
    "workload",
]
