"""Streaming: the k_max-truss of a sliding window, with checkpointing.

Feeds a timestamped interaction stream (synthetic: waves of community
activity over a noisy background) through a windowed IngestPipeline,
watching k_max rise and fall as dense bursts enter and age out of the
window — then checkpoints the underlying maintenance state and resumes it.

Run:  python examples/streaming_window.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.dynamic import (
    DynamicMaxTruss,
    IngestPipeline,
    load_checkpoint,
    save_checkpoint,
)
from repro.graph.generators import complete_graph
from repro.graph.memgraph import Graph


def interaction_stream(seed=0):
    """Background noise with two bursts of dense community activity."""
    rng = np.random.default_rng(seed)
    stream = []
    def noise(count, base):
        for _ in range(count):
            u, v = rng.integers(0, 40, size=2)
            if u != v:
                stream.append((int(u) + base, int(v) + base))

    noise(60, 0)
    stream.extend((u + 100, v + 100) for u, v in complete_graph(8).edge_pairs())
    noise(80, 0)
    stream.extend((u + 200, v + 200) for u, v in complete_graph(10).edge_pairs())
    noise(60, 0)
    return stream


def main() -> None:
    state = DynamicMaxTruss(Graph.empty(0))
    peak = 0

    def record_peak(_ops: int) -> None:
        nonlocal peak
        peak = max(peak, state.k_max)

    pipe = IngestPipeline(
        state, window=120, batch_size=10, on_batch_applied=record_peak
    )
    print(f"window={pipe.window}, batch={pipe.batch_size}\n")
    events = interaction_stream()
    checkpoints = {len(events) // 2}
    path = Path(tempfile.mkdtemp()) / "window.ckpt"
    stats = pipe.stats

    for index, (u, v) in enumerate(events, 1):
        pipe.submit(u, v)
        if index % 40 == 0:
            k_max = pipe.k_max  # flushes the queued arrivals first
            print(f"  after {index:>3} events: k_max={k_max} "
                  f"(live edges: {stats.arrivals - stats.expirations})")
        if index in checkpoints:
            pipe.flush()
            size = save_checkpoint(state, path)
            print(f"  -- checkpointed maintenance state at event {index} "
                  f"({size} bytes)")

    pipe.close()
    print(f"\nfinal k_max: {state.k_max}")
    print(f"peak k_max over the stream: {peak}")
    print(f"arrivals={stats.arrivals} "
          f"expirations={stats.expirations} "
          f"duplicates={stats.duplicates_skipped}")

    restored = load_checkpoint(path)
    print(f"\nrestored mid-stream state: k_max={restored.k_max} "
          f"({restored.truss_edge_count()} class edges) — "
          "a crashed stream processor resumes from here")


if __name__ == "__main__":
    main()
