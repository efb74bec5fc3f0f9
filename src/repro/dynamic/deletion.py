"""Edge deletion maintenance — Algorithm 5.

Lemma 7 (refined to edge membership): deleting an edge outside the
``k_max``-class cannot change the class — triangles through a non-class edge
do not count toward in-class supports. For a class edge, the update is a
peeling cascade *inside the class*: triangles through the deleted edge lower
their two remaining edges' supports; edges falling below ``k_max − 2`` leave
the class breadth-first (Alg 5 lines 4–19). If the class vanishes, Lemma 6
pins the new ``k_max`` at ``k_max − 1`` and the global tier recomputes the
new class on the core-pruned candidate set (lines 20–26).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from ..errors import GraphFormatError

if TYPE_CHECKING:  # the state imports this module
    from .state import DynamicMaxTruss


def delete_edge(state: DynamicMaxTruss, u: int, v: int) -> str:
    """Delete ``(u, v)`` from the graph and maintain the ``k_max``-class.

    Returns how the update was resolved: ``"untouched"``, ``"local"`` or
    ``"global"``.
    """
    if not state.graph.has_edge(u, v):
        raise GraphFormatError(f"cannot delete absent edge ({u}, {v})")

    in_class = state.truss_contains_edge(u, v)
    state.graph_delete(u, v)
    if not in_class:
        return "untouched"

    if state.k_max <= 2:
        # Triangle-free regime: class is all edges; just unlink.
        state.remove_truss_edge(u, v)
        if state.truss_edge_count() == 0:
            state.k_max = 0
        return "local"

    return _local_cascade(state, u, v)


def _local_cascade(state: DynamicMaxTruss, u: int, v: int) -> str:
    """Peel the class after removing in-class edge ``(u, v)``.

    Returns the resolution mode (``"local"`` or ``"global"``).
    """
    threshold = state.k_max - 2
    queue = deque()

    def note_decrement(x: int, y: int, eid: int) -> None:
        state._truss_sup[eid] -= 1
        if state._truss_sup[eid] < threshold:
            queue.append((x, y))

    # Seed: triangles through (u, v) inside the class (Alg 5 lines 5-10).
    nbrs_u = state.load_truss_neighbors(u)
    nbrs_v = state.load_truss_neighbors(v)
    small, large, a, b = (
        (nbrs_u, nbrs_v, u, v) if len(nbrs_u) <= len(nbrs_v) else (nbrs_v, nbrs_u, v, u)
    )
    common = [w for w in small if w in large and w not in (u, v)]
    state.remove_truss_edge(u, v)
    for w in common:
        note_decrement(a, w, state.truss_edge_id(a, w))
        note_decrement(b, w, state.truss_edge_id(b, w))

    # Cascade (Alg 5 lines 11-19), with the two-tier escape hatch.
    removed = 0
    while queue:
        x, y = queue.popleft()
        eid = state.truss_edge_id(x, y)
        if eid < 0:
            continue  # already peeled via another triangle
        if state.local_budget is not None and removed >= state.local_budget:
            # Affected area too large: transition to the global tier.
            state.global_phase(state.k_max - 1)
            return "global"
        nbrs_x = state.load_truss_neighbors(x)
        nbrs_y = state.load_truss_neighbors(y)
        small, large, a, b = (
            (nbrs_x, nbrs_y, x, y)
            if len(nbrs_x) <= len(nbrs_y)
            else (nbrs_y, nbrs_x, y, x)
        )
        common = [w for w in small if w in large]
        state.remove_truss_edge(x, y)
        removed += 1
        for w in common:
            note_decrement(a, w, state.truss_edge_id(a, w))
            note_decrement(b, w, state.truss_edge_id(b, w))

    if state.truss_edge_count() > 0:
        state._recharge_truss_memory()
        return "local"
    # Class vanished: Lemma 6 gives k_max - 1; recompute globally.
    state.global_phase(state.k_max - 1)
    return "global"
