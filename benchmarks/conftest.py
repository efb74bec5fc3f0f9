"""Shared benchmark infrastructure.

Every bench module regenerates one table/figure of the paper (see
DESIGN.md §4). Besides pytest-benchmark's timing table, each module appends
paper-style rows (I/O, memory, k_max, ...) to a :class:`BenchReport`, which
writes ``benchmarks/results/<experiment>.txt`` so the numbers survive output
capture and feed EXPERIMENTS.md.

Conventions:

* every algorithm run gets a fresh default ``EngineConfig()`` context, whose
  ``semi_external_cache_blocks`` pool honours the semi-external model;
* the paper's 48-hour "INF" timeout is emulated with a
  :class:`~repro._util.WorkBudget`; algorithms that blow the cap are
  reported as ``INF``;
* graphs are cached per (name, seed) within the session.
"""

from __future__ import annotations

import pathlib
import time
from typing import Dict, List, Optional, Tuple

import pytest

from repro._util import WorkBudget
from repro.core.api import max_truss
from repro.engine import EngineConfig
from repro.errors import WorkLimitExceeded
from repro.graph.datasets import load_dataset
from repro.graph.memgraph import Graph

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"

#: Work cap emulating the paper's "INF": generous enough for the semi
#: algorithms at stand-in scale, low enough that Top-Down's partition storm
#: on large graphs trips it (as it trips 48h in the paper).
INF_WORK_LIMIT = 2_000_000


class BenchReport:
    """Accumulates experiment rows and persists them as a text table."""

    def __init__(self, experiment: str, header: List[str]) -> None:
        self.experiment = experiment
        self.header = header
        self.rows: List[List[str]] = []

    def add(self, *values) -> None:
        """Append one row (values are stringified)."""
        self.rows.append([str(value) for value in values])

    def render(self) -> str:
        """Fixed-width table for humans."""
        table = [self.header] + self.rows
        widths = [
            max(len(row[col]) for row in table) for col in range(len(self.header))
        ]
        lines = []
        for index, row in enumerate(table):
            lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
            if index == 0:
                lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
        return "\n".join(lines)

    def write(self) -> pathlib.Path:
        """Persist to benchmarks/results/<experiment>.txt."""
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{self.experiment}.txt"
        path.write_text(self.render() + "\n", encoding="utf-8")
        return path


_graph_cache: Dict[Tuple[str, int], Graph] = {}


@pytest.fixture(scope="session")
def graphs():
    """Session-cached dataset loader."""

    def load(name: str, seed: int = 0) -> Graph:
        key = (name, seed)
        if key not in _graph_cache:
            _graph_cache[key] = load_dataset(name, seed=seed)
        return _graph_cache[key]

    return load


def run_method(
    graph: Graph,
    method: str,
    work_limit: Optional[int] = INF_WORK_LIMIT,
    **kwargs,
):
    """Run one algorithm with INF emulation.

    Returns ``(result_or_None, elapsed_seconds, io_total, peak_mem)``;
    a tripped work budget yields ``(None, elapsed, "INF", "INF")``.
    """
    budget = WorkBudget(limit=work_limit) if work_limit else None
    start = time.perf_counter()
    try:
        result = max_truss(graph, method=method, context=EngineConfig(),
                           budget=budget, **kwargs)
    except WorkLimitExceeded:
        return None, time.perf_counter() - start, "INF", "INF"
    elapsed = time.perf_counter() - start
    return result, elapsed, result.io.total_ios, result.peak_memory_bytes


def fmt_ms(seconds: float) -> str:
    """Milliseconds with one decimal."""
    return f"{seconds * 1e3:.1f}"
