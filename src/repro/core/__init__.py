"""The paper's primary contribution: semi-external max-truss computation."""

from . import bounds
from .result import MaxTrussResult, MaintenanceResult
from .peeling import (
    PeelStats,
    PlainDiskHeap,
    delete_edge_kernel,
    peel_below,
    surviving_edge_ids,
)
from .semi_binary import semi_binary
from .semi_greedy_core import semi_greedy_core, greedy_core_flow
from .semi_lazy_update import semi_lazy_update
from .api import max_truss, available_methods
from .k_truss import KTrussResult, k_truss_semi_external

__all__ = [
    "bounds",
    "MaxTrussResult",
    "MaintenanceResult",
    "PeelStats",
    "PlainDiskHeap",
    "delete_edge_kernel",
    "peel_below",
    "surviving_edge_ids",
    "semi_binary",
    "semi_greedy_core",
    "semi_lazy_update",
    "greedy_core_flow",
    "max_truss",
    "available_methods",
    "KTrussResult",
    "k_truss_semi_external",
]
