"""Graph representations, file formats, generators and dataset stand-ins."""

from .memgraph import Graph, MutableGraph, canonical_edge_array
from .disk_graph import DiskGraph
from .edgelist import read_text_edgelist, write_text_edgelist
# ``formats`` is imported by path, never from here: it pulls in
# repro.persistence, whose devices and repro.engine import each other, a
# cycle that resolves only when repro.engine loads first, and
# ``import repro`` loads this package before it.
from . import generators, datasets

__all__ = [
    "Graph",
    "MutableGraph",
    "DiskGraph",
    "canonical_edge_array",
    "read_text_edgelist",
    "write_text_edgelist",
    "generators",
    "datasets",
]
