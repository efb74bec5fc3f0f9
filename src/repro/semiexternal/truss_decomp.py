"""Semi-external truss decomposition by local h-index iteration.

The peeling decomposition (:func:`repro.baselines.bottom_up.bottom_up`)
processes edges globally in support order — inherently sequential and
random-access. The *local* alternative, which the paper's Top-Down baseline
uses for upper bounds (and which Sariyuce et al. developed as a standalone
algorithm), iterates a per-edge h-index to a fixpoint:

    ``t(e) <- h-index over triangles (e, f, g) of min(t(f), t(g))``

starting from ``t(e) = sup(e)``. Each iterate stays an upper bound on
``τ(e) − 2`` and the sequence converges to it exactly. Every round is one
sequential pass over the adjacency file — friendly to the I/O model — and
the number of rounds is typically small.

This module exposes the round (:func:`h_index_round`, which Top-Down runs
twice for its bounds) and the converged algorithm as a second,
independent semi-external decomposition; tests cross-check it against
peeling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .._util import WorkBudget
from ..core.run import ChargedRun
from ..engine.context import ContextLike
from ..graph.disk_graph import DiskGraph
from ..graph.memgraph import Graph
from ..storage import DiskArray
from .core_decomp import h_index
from .support import compute_supports


@dataclass
class HIndexDecomposition:
    """Result of the h-index truss decomposition."""

    trussness: np.ndarray  # per-edge τ(e), edge-id indexed
    rounds: int
    k_max: int


def h_index_round(
    disk_graph: DiskGraph,
    values: DiskArray,
    budget: Optional[WorkBudget] = None,
) -> bool:
    """One pass lowering every edge's value to its triangles' h-index.

    For each edge ``(u, v)`` that closes a triangle, ``values[uv]`` drops
    to the h-index of ``min(values[uw], values[vw])`` over its triangles
    when that is lower. The partner cells are read in one gather,
    interleaved ``uw, vw, uw, vw, …`` — the order of enumerating the
    triangles one at a time. A triangle-free edge is neither read nor
    written: its value starts at its support, 0, and no round raises it.
    Returns whether any value decreased.
    """
    marker = np.full(disk_graph.n, -1, dtype=np.int64)
    marker_eid = np.zeros(disk_graph.n, dtype=np.int64)
    changed = False
    for u in range(disk_graph.n):
        if disk_graph.degree(u) == 0:
            continue
        nbrs, eids = disk_graph.load_neighbors_with_eids(u)
        marker[nbrs] = u
        marker_eid[nbrs] = eids
        for position in range(len(nbrs)):
            v = int(nbrs[position])
            if v <= u:
                continue
            if budget is not None:
                budget.spend()
            v_nbrs, v_eids = disk_graph.load_neighbors_with_eids(v)
            hits = marker[v_nbrs] == u
            if not hits.any():
                continue
            partners = np.empty(2 * int(np.count_nonzero(hits)), dtype=np.int64)
            partners[0::2] = marker_eid[v_nbrs[hits]]
            partners[1::2] = v_eids[hits]
            cells = values.gather(partners)
            candidate = h_index(np.minimum(cells[0::2], cells[1::2]))
            uv_eid = int(eids[position])
            if candidate < values.get(uv_eid):
                values.set(uv_eid, candidate)
                changed = True
    return changed


def h_index_truss_decomposition(
    graph: Graph,
    budget: Optional[WorkBudget] = None,
    max_rounds: Optional[int] = None,
    context: Optional[ContextLike] = None,
) -> HIndexDecomposition:
    """Exact trussness of every edge via h-index convergence.

    Parameters
    ----------
    graph:
        Input graph (materialised onto the context's device).
    budget:
        Optional work cap (one unit per edge visit per round).
    max_rounds:
        Optional early stop for bound-only use (Top-Down uses 2 rounds);
        the returned values are then still sound *upper bounds* on τ.
    """
    run = ChargedRun("HIndex", graph, context, budget)
    disk_graph, memory, budget = run.disk_graph, run.memory, run.budget
    if graph.m == 0:
        run.bill()
        return HIndexDecomposition(np.zeros(0, dtype=np.int64), 0, 0)
    scan = compute_supports(disk_graph)
    values = scan.supports  # iterate in place: starts at sup(e) = ub on τ-2
    memory.charge("hindex.markers", 16 * graph.n)  # the round's two int64 markers
    rounds = 0
    while True:
        rounds += 1
        if not h_index_round(disk_graph, values, budget):
            break
        if max_rounds is not None and rounds >= max_rounds:
            break
    trussness = values.to_numpy() + 2
    memory.release("hindex.markers")
    values.free()
    disk_graph.release()
    run.bill()
    return HIndexDecomposition(trussness, rounds, int(trussness.max()))
