"""How fast the machine runs Python right now: a fixed reference kernel.

The benchmark shares its machine with other tenants, whose load slows
every computation by 1.2-2x for stretches of seconds to ten minutes --
longer than a run. A process that times the program also times this
kernel between the program's operations, and the run reports its times
scaled by ``NOMINAL_S / fastest kernel time``: the times the program would
take on a machine where the kernel takes ``NOMINAL_S``. Interference then
slows the kernel and the program alike and cancels, while a change to the
program, which cannot touch the kernel, shows in full.

The kernel is pure Python (set intersections over a fixed random graph),
like the program's hot loops, and imports nothing from ``repro``.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Set

#: A round value just above the kernel's fastest time (4.3-4.7 ms) on the
#: 2-core machine the baselines in README.md were measured on, so scaled
#: times there read within about 15% of wall-clock times.
NOMINAL_S = 0.0050

_VERTICES = 400
_EDGES = 3000
_ROUNDS = 3


class SpeedReference:
    """Times the kernel on demand and keeps every sample."""

    def __init__(self) -> None:
        rng = random.Random(20240611)
        self._adj: Dict[int, Set[int]] = {}
        for _ in range(_EDGES):
            u, v = rng.randrange(_VERTICES), rng.randrange(_VERTICES)
            if u != v:
                self._adj.setdefault(u, set()).add(v)
                self._adj.setdefault(v, set()).add(u)
        self.samples: List[float] = []

    def _kernel(self) -> int:
        adj = self._adj
        triangles = 0
        for _ in range(_ROUNDS):
            for u, nbrs in adj.items():
                for v in nbrs:
                    if u < v:
                        triangles += len(nbrs & adj[v])
        return triangles

    def sample(self) -> float:
        """Run the kernel once; return and keep its duration in seconds."""
        start = time.perf_counter()
        self._kernel()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed


def scale(samples: List[float]) -> float:
    """The factor that turns a run's times into reference-speed times."""
    return NOMINAL_S / min(samples)
