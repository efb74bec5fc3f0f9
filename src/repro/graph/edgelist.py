"""Text edge-list file I/O.

One ``u v`` pair per line; ``#`` and ``%`` comment lines are skipped
(SNAP / KONECT conventions). Vertices may be arbitrary non-negative
integers; :func:`read_text_edgelist` can optionally compact them. The
binary images (``.rgr``, compressed) and METIS live in
:mod:`repro.graph.formats`, whose ``GRAPH_FORMATS`` table reads and
writes every graph file ``repro convert`` produces.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Tuple, Union

import numpy as np

from ..errors import GraphFormatError
from .memgraph import Graph, canonical_edge_array

PathLike = Union[str, Path]


def read_text_edgelist(path: PathLike, compact: bool = True) -> Graph:
    """Parse a whitespace-separated text edge list into a :class:`Graph`.

    With ``compact=True`` (default) vertex ids are relabelled to a dense
    ``0..n-1`` range in sorted order of original ids.
    """
    pairs: List[Tuple[int, int]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, 1):
            stripped = line.strip()
            if not stripped or stripped[0] in "#%":
                continue
            fields = stripped.split()
            if len(fields) < 2:
                raise GraphFormatError(
                    f"{path}:{line_number}: expected at least two fields, got {stripped!r}"
                )
            try:
                u, v = int(fields[0]), int(fields[1])
            except ValueError as exc:
                raise GraphFormatError(
                    f"{path}:{line_number}: non-integer vertex id in {stripped!r}"
                ) from exc
            if u < 0 or v < 0:
                raise GraphFormatError(
                    f"{path}:{line_number}: negative vertex id in {stripped!r}"
                )
            pairs.append((u, v))
    edges = canonical_edge_array(pairs)
    if compact and len(edges):
        ids = np.unique(edges)
        remap = {int(old): new for new, old in enumerate(ids)}
        edges = np.array(
            [(remap[int(u)], remap[int(v)]) for u, v in edges], dtype=np.int64
        )
        return Graph(len(ids), edges)
    return Graph.from_edges(edges)


def write_text_edgelist(graph: Graph, path: PathLike) -> None:
    """Write *graph* as a ``u v`` per-line text file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# repro edge list: n={graph.n} m={graph.m}\n")
        for u, v in graph.edges:
            handle.write(f"{u} {v}\n")
