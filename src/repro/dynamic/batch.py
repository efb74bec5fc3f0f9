"""Batch maintenance of the ``k_max``-truss.

The paper's related work covers batch truss maintenance (Luo et al.), and
its own two-tier design generalises naturally: when a burst of updates
arrives, per-update cascades waste work — several updates may each trigger
a global recomputation that a single one would cover.

:func:`apply_batch` applies a mixed stream of insertions/deletions with one
decision at the end (callers go through
:meth:`~repro.dynamic.state.DynamicMaxTruss.apply_batch`, which bills the
batch and returns its :class:`BatchResult`):

* the batch is first **coalesced**: a net-zero pair (an edge inserted and
  deleted within the same batch, in either order) cancels before touching
  the graph, so a bursty stream's churn never inflates the mutation count,
  the deletion bound, or the gate probes;
* cheap gates run per surviving insertion exactly as in Algorithms 5/6
  (Lemma 7's class membership for deletions, Lemma 9's upper bound for
  insertions), with neighbourhood loads deduplicated per endpoint — a
  vertex touched by many batch insertions is read once;
* if **no** update passed its gate, the class is provably unchanged — total
  cost is the graph mutations plus the gate probes;
* otherwise a **single** global phase recomputes the class with the sound
  Lemma 6 batch bound: after ``d`` *net* deletions and ``i`` insertions,
  ``k_max_new >= k_max − d`` — so the candidate set is pruned at
  ``core >= k_max − d − 1`` and one upward peel settles everything.
  Coalescing shrinks ``d``, which tightens the bound and the candidate set.

The result is always exact (property-tested against per-op maintenance and
against recomputation from scratch).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Tuple

from ..errors import GraphFormatError
from ..storage import IOStats

if TYPE_CHECKING:  # the state imports this module
    from .state import DynamicMaxTruss

#: ("insert" | "delete", u, v)
BatchOp = Tuple[str, int, int]


@dataclass
class BatchResult:
    """Outcome of one :meth:`~repro.dynamic.state.DynamicMaxTruss.apply_batch`
    call."""

    operations: int
    insertions: int
    deletions: int
    k_max_before: int
    k_max_after: int
    mode: str  # "untouched" | "global"
    io: IOStats = field(default_factory=IOStats)
    elapsed_seconds: float = 0.0
    cancelled_ops: int = 0  #: ops dropped by net-zero pair coalescing
    gate_probes: int = 0    #: insertion gates evaluated (post-dedupe)


def check_batch(
    state: DynamicMaxTruss, ops: List[BatchOp]
) -> Tuple[List[BatchOp], int]:
    """Check *ops* against the current graph and cancel net-zero pairs.

    This is the one check of a batch, run before anything is logged or
    mutated: :meth:`~repro.dynamic.state.DynamicMaxTruss.apply_batch`
    calls it, and :class:`~repro.persistence.recovery.DurableMaintenance`
    calls it before the WAL append. It reads only the in-memory graph, so
    it charges nothing. Walks the batch once, simulating per-pair
    membership: a malformed operation (unknown opcode, self-loop,
    negative vertex id) or one that conflicts with the evolving state
    (duplicate insert, absent delete) raises
    :class:`~repro.errors.GraphFormatError`, so a rejected batch leaves
    the graph untouched. Pairs whose final membership equals their
    initial one (insert+delete or delete+insert sequences) are dropped
    wholesale: the final edge *set* is what the decomposition depends on,
    and an edge that survives a delete+insert round trip keeps its stable
    id, class membership and supports, so skipping the churn is exact.
    Surviving pairs contribute exactly one net operation, in first-touch
    order.
    """
    initial: Dict[Tuple[int, int], bool] = {}
    current: Dict[Tuple[int, int], bool] = {}
    last_op: Dict[Tuple[int, int], BatchOp] = {}
    order: List[Tuple[int, int]] = []
    for op, u, v in ops:
        if op not in ("insert", "delete"):
            raise GraphFormatError(f"unknown batch operation {op!r}")
        if u == v:
            raise GraphFormatError("self-loops are not allowed")
        if u < 0 or v < 0:
            raise GraphFormatError("vertex ids must be non-negative")
        pair = (u, v) if u <= v else (v, u)
        if pair not in initial:
            present = state.graph.has_edge(u, v)
            initial[pair] = present
            order.append(pair)
        else:
            present = current[pair]
        if op == "insert":
            if present:
                raise GraphFormatError(
                    f"batch insert of existing edge ({u}, {v})"
                )
            current[pair] = True
        else:
            if not present:
                raise GraphFormatError(
                    f"batch delete of absent edge ({u}, {v})"
                )
            current[pair] = False
        last_op[pair] = (op, u, v)
    net = [last_op[pair] for pair in order if current[pair] != initial[pair]]
    return net, len(ops) - len(net)


def apply_batch(
    state: DynamicMaxTruss, ops: List[BatchOp]
) -> Tuple[int, int, str, int, int]:
    """Apply *ops* to *state* with at most one global recomputation.

    Returns ``(insertions, deletions, mode, cancelled_ops, gate_probes)``.
    The batch is atomic with respect to validation: :func:`check_batch`
    raises :class:`~repro.errors.GraphFormatError` for any rejected
    operation before any mutation, leaving the graph exactly as it was.
    """
    net_ops, cancelled = check_batch(state, ops)

    insertions = 0
    deletions = 0
    class_deletions = 0
    for op, u, v in net_ops:
        if op == "insert":
            state.graph_insert(u, v)
            insertions += 1
        else:
            if state.truss_contains_edge(u, v):
                class_deletions += 1
                state.remove_truss_edge(u, v)
            state.graph_delete(u, v)
            deletions += 1

    # Gate the insertions once, after all mutations (supports/cores final).
    # Neighbourhood loads are deduplicated per endpoint: the batch's gate
    # phase reads each touched vertex at most once, and the loop stops the
    # moment one insertion passes its gate — the batch outcome is decided.
    gated_insertion = False
    gate_probes = 0
    neighbors: Dict[int, Dict[int, int]] = {}

    def _load(v: int) -> Dict[int, int]:
        cached = neighbors.get(v)
        if cached is None:
            cached = neighbors[v] = state.load_graph_neighbors(v)
        return cached

    for op, u, v in net_ops:
        if op != "insert":
            continue
        nbrs_u, nbrs_v = _load(u), _load(v)
        small, large = (
            (nbrs_u, nbrs_v) if len(nbrs_u) <= len(nbrs_v) else (nbrs_v, nbrs_u)
        )
        support = sum(1 for w in small if w in large)
        upper = min(
            support + 2,
            min(state.core_upper(u), state.core_upper(v)) + 1,
        )
        gate_probes += 1
        if state.k_max <= 2 and support > 0:
            gated_insertion = True
        elif upper >= state.k_max:
            gated_insertion = True
        if gated_insertion:
            break

    if class_deletions == 0 and not gated_insertion:
        # Provably no class change; track trivial-class growth at k_max <= 2.
        if state.k_max <= 2 and net_ops:
            state.set_trivial_class()
        return insertions, deletions, "untouched", cancelled, gate_probes

    state.global_phase(max(3, state.k_max - deletions))
    return insertions, deletions, "global", cancelled, gate_probes
