"""Edge insertion maintenance — Algorithms 6 and 7.

Lemma 9 splits the work:

* **cheap gate** — the new edge's trussness upper bound
  ``min(sup(u,v) + 2, min(core(u), core(v)) + 1)`` is below ``k_max``: no
  edge can join the class (any certificate raising an edge to ``k_max``
  must contain ``(u, v)`` itself), so nothing changes;
* **case 1 (edge lands inside the class)** — a ``(k_max+1)``-truss can only
  consist of old class edges plus ``(u, v)`` (Lemma 6 caps everyone else at
  ``k_max``), so the k-level-triangle test and hypothetical peel (Alg 6
  lines 4–29) run entirely on the class, with support rollback (the set
  ``S``) when the hypothesis fails;
* **case 2 / growth fallback** — when the gate passes but no
  ``(k_max+1)``-truss forms, previously-outside edges with trussness
  ``k_max − 1`` may still join the class; the paper's printed pseudo-code
  leaves this path implicit, so (as recorded in DESIGN.md §3.4) we resolve
  it exactly with the global-second tier: core-pruned recomputation at
  ``lb = k_max``.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Dict

from ..errors import GraphFormatError

if TYPE_CHECKING:  # the state imports this module
    from .state import DynamicMaxTruss


def insert_edge(state: DynamicMaxTruss, u: int, v: int) -> str:
    """Insert ``(u, v)`` into the graph and maintain the ``k_max``-class.

    Returns how the update was resolved: ``"untouched"``, ``"local"`` or
    ``"global"``.
    """
    if u == v:
        raise GraphFormatError("self-loops are not allowed")
    if state.graph.has_edge(u, v):
        raise GraphFormatError(f"edge ({u}, {v}) already present")

    eid = state.graph_insert(u, v)

    if state.k_max <= 2:
        return _bootstrap_insert(state, u, v, eid)
    return _maintain_insert(state, u, v, eid)


def _support_in_graph(state: DynamicMaxTruss, u: int, v: int) -> int:
    """``sup((u, v))`` in the full graph (charged neighbourhood loads)."""
    nbrs_u = state.load_graph_neighbors(u)
    nbrs_v = state.load_graph_neighbors(v)
    small, large = (nbrs_u, nbrs_v) if len(nbrs_u) <= len(nbrs_v) else (nbrs_v, nbrs_u)
    return sum(1 for w in small if w in large)


def _bootstrap_insert(state: DynamicMaxTruss, u: int, v: int, eid: int) -> str:
    """Insertion while ``k_max <= 2`` (the class is every edge)."""
    if _support_in_graph(state, u, v) > 0:
        # First triangle(s): k_max jumps to at least 3.
        state.global_phase(3)
        return "global"
    state.add_truss_edge(u, v, eid, 0)
    state.k_max = 2
    return "local"


def _maintain_insert(state: DynamicMaxTruss, u: int, v: int, eid: int) -> str:
    support = _support_in_graph(state, u, v)
    upper = min(
        support + 2,
        min(state.core_upper(u), state.core_upper(v)) + 1,
    )
    if upper < state.k_max:
        return "untouched"
    # The cheap bound passed on possibly-stale coreness; refresh and retest
    # before doing any heavy work (sound: refresh only lowers the bound).
    if state._insertions_since_refresh > 1:
        coreness = state.refresh_coreness()
        upper = min(
            support + 2, min(int(coreness[u]), int(coreness[v])) + 1
        )
        if upper < state.k_max:
            return "untouched"

    if state.truss_contains_vertex(u) and state.truss_contains_vertex(v):
        promoted = _try_promote(state, u, v, eid)
        if promoted:
            return "local"
    # Growth at the current k_max is possible: recompute exactly on the
    # core-pruned candidate set (Alg 6 lines 30-33).
    state.global_phase(state.k_max)
    return "global"


def _try_promote(state: DynamicMaxTruss, u: int, v: int, eid: int) -> bool:
    """Case 1: test for a ``(k_max+1)``-truss inside class ∪ {(u, v)}.

    Returns ``True`` (state updated, ``k_max`` incremented) when the
    hypothesis holds; ``False`` leaves the state untouched (rollback).
    """
    k_max = state.k_max
    nbrs_u = state.load_truss_neighbors(u)
    nbrs_v = state.load_truss_neighbors(v)
    small, large, a, b = (
        (nbrs_u, nbrs_v, u, v) if len(nbrs_u) <= len(nbrs_v) else (nbrs_v, nbrs_u, v, u)
    )
    common = [w for w in small if w in large]

    # Candidate supports: class supports + the new edge's triangles.
    sup: Dict[int, int] = dict(state._truss_sup)
    adj: Dict[int, Dict[int, int]] = {
        x: dict(nbrs) for x, nbrs in state._truss_adj.items()
    }
    adj.setdefault(u, {})[v] = eid
    adj.setdefault(v, {})[u] = eid
    sup[eid] = len(common)
    for w in common:
        sup[adj[a][w]] += 1
        sup[adj[b][w]] += 1

    # k-level triangle count |Δ^{k_max+1}_{(u,v)}| (Definition 8): triangles
    # whose two other edges both reach support k_max - 1 in the candidate.
    strong = sum(
        1
        for w in common
        if sup[adj[u][w]] >= k_max - 1 and sup[adj[v][w]] >= k_max - 1
    )
    if strong < k_max - 1:
        return False  # Alg 6 line 12: no (k_max+1)-truss can form

    # Hypothetical peel at threshold k_max - 1 on the candidate copy.
    threshold = k_max - 1
    queue = deque(
        (x, y) for x, nbrs in adj.items() for y in nbrs
        if x < y and sup[nbrs[y]] < threshold
    )
    while queue:
        x, y = queue.popleft()
        edge = adj.get(x, {}).get(y)
        if edge is None:
            continue
        nbrs_x, nbrs_y = adj.get(x, {}), adj.get(y, {})
        small2, large2, c, d = (
            (nbrs_x, nbrs_y, x, y)
            if len(nbrs_x) <= len(nbrs_y)
            else (nbrs_y, nbrs_x, y, x)
        )
        common2 = [w for w in small2 if w in large2]
        del adj[x][y]
        del adj[y][x]
        sup.pop(edge, None)
        for w in common2:
            for other in (adj[c][w], adj[d][w]):
                sup[other] -= 1
                if sup[other] < threshold:
                    pair = state.graph.endpoints(other)
                    queue.append(pair)
        # Charged: the hypothetical peel reads the class file per kernel.
        state.truss_file.charge_load(x)
        state.truss_file.charge_load(y)

    if not sup:
        return False  # hypothesis failed; original state untouched (set S)

    rows = []
    for x, nbrs in adj.items():
        for y, edge in nbrs.items():
            if x < y:
                rows.append((x, y, edge, sup[edge]))
    state.set_class(rows, k_max + 1)
    return True
