"""Truss-core robustness analysis.

How fragile is the ``k_max``-truss under edge failures? Built on the
maintenance engine (paper §IV), these probes measure how many deletions —
random or adversarial — it takes to degrade ``k_max``, and how the class
size decays along the way. Useful both as an application of the dynamic
algorithms and as a stress harness for them (every step is an exact
maintained state).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..engine.context import ContextLike
from ..graph.memgraph import Graph
from ..dynamic.state import DynamicMaxTruss

EdgePair = Tuple[int, int]


@dataclass
class AttackTrace:
    """Record of a degradation run.

    ``k_max_history[i]`` is the value after ``i`` deletions (index 0 is the
    starting value); ``class_sizes`` aligns with it.
    """

    strategy: str
    deleted: List[EdgePair] = field(default_factory=list)
    k_max_history: List[int] = field(default_factory=list)
    class_sizes: List[int] = field(default_factory=list)

    @property
    def deletions_to_first_drop(self) -> Optional[int]:
        """Deletions until ``k_max`` first drops (``None`` if it never did)."""
        start = self.k_max_history[0]
        for index, value in enumerate(self.k_max_history[1:], 1):
            if value < start:
                return index
        return None

    @property
    def final_k_max(self) -> int:
        """``k_max`` at the end of the run."""
        return self.k_max_history[-1]


def _pick_random(state: DynamicMaxTruss, rng) -> Optional[EdgePair]:
    live = state.graph.live_edge_ids()
    if not live:
        return None
    eid = live[int(rng.integers(0, len(live)))]
    return state.graph.endpoints(eid)


def _pick_targeted(state: DynamicMaxTruss, rng) -> Optional[EdgePair]:
    # Adversarial: always hit the current class (the truss's own edges).
    pairs = state.truss_pairs()
    if pairs:
        return pairs[int(rng.integers(0, len(pairs)))]
    return _pick_random(state, rng)


def edge_deletion_attack(
    graph: Graph,
    deletions: int,
    strategy: str = "random",
    seed: Optional[int] = None,
    context: Optional[ContextLike] = None,
) -> AttackTrace:
    """Delete *deletions* edges and trace the ``k_max`` decay.

    Parameters
    ----------
    strategy:
        ``"random"`` — uniform over live edges; ``"targeted"`` — always a
        current class edge (worst case for the truss, and the paper's
        expensive maintenance path).
    """
    if strategy not in ("random", "targeted"):
        raise ValueError(f"unknown attack strategy {strategy!r}")
    if deletions < 0:
        raise ValueError("deletions must be non-negative")
    rng = np.random.default_rng(seed)
    state = DynamicMaxTruss(graph, context=context)
    trace = AttackTrace(strategy)
    trace.k_max_history.append(state.k_max)
    trace.class_sizes.append(state.truss_edge_count())
    picker = _pick_random if strategy == "random" else _pick_targeted
    for _ in range(deletions):
        pair = picker(state, rng)
        if pair is None:
            break
        state.delete(*pair)
        trace.deleted.append(pair)
        trace.k_max_history.append(state.k_max)
        trace.class_sizes.append(state.truss_edge_count())
    return trace


def resilience_summary(graph: Graph, budget: int = 30, seed: int = 0) -> dict:
    """Compare random vs targeted decay on one graph.

    Returns the two traces' first-drop points and final ``k_max`` values —
    targeted attacks should degrade the truss at least as fast as random
    ones (asserted in tests).
    """
    random_trace = edge_deletion_attack(graph, budget, "random", seed=seed)
    targeted_trace = edge_deletion_attack(graph, budget, "targeted", seed=seed)
    return {
        "random_first_drop": random_trace.deletions_to_first_drop,
        "targeted_first_drop": targeted_trace.deletions_to_first_drop,
        "random_final_kmax": random_trace.final_k_max,
        "targeted_final_kmax": targeted_trace.final_k_max,
    }
