"""Semi-external primitives: support scans, triangles, core decomposition."""

from .support import SupportScan, compute_supports, support_histogram, prefix_positions
from .triangles import (
    triangle_count,
    enumerate_triangles,
    edge_triangle_supports_naive,
    local_clustering,
    global_clustering,
)
from .truss_decomp import HIndexDecomposition, h_index_round, h_index_truss_decomposition
from .wcc import ComponentResult, semi_external_components, split_edges_semi_external
from .core_decomp import (
    CoreDecompositionResult,
    core_decomposition_inmemory,
    semi_external_core_decomposition,
    max_core_subgraph,
    h_index,
)

__all__ = [
    "SupportScan",
    "compute_supports",
    "support_histogram",
    "prefix_positions",
    "triangle_count",
    "enumerate_triangles",
    "edge_triangle_supports_naive",
    "local_clustering",
    "global_clustering",
    "CoreDecompositionResult",
    "core_decomposition_inmemory",
    "semi_external_core_decomposition",
    "max_core_subgraph",
    "h_index",
    "HIndexDecomposition",
    "h_index_round",
    "h_index_truss_decomposition",
    "ComponentResult",
    "semi_external_components",
    "split_edges_semi_external",
]
