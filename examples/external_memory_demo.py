"""Inside the I/O model: watch where the block I/Os go.

Runs all algorithms on one web-graph stand-in under a semi-external-sized
buffer pool, breaking down read/write I/O, peak model memory and runtime —
a miniature of the paper's Fig 5 — and then demonstrates the LHDH capacity
knob (memory vs. spill-I/O trade-off).

Run:  python examples/external_memory_demo.py
"""

from repro import EngineConfig, max_truss, semi_lazy_update
from repro.graph.datasets import load_dataset_with_spec


def main() -> None:
    graph, spec = load_dataset_with_spec("wikipedia-s", seed=0)
    print(f"dataset {spec.name}: stand-in for {spec.paper_name} "
          f"(paper: {spec.paper_m:,} edges, k_max={spec.paper_kmax})")
    print(f"stand-in size: n={graph.n} m={graph.m}\n")

    header = f"{'algorithm':>18} {'k_max':>6} {'reads':>8} {'writes':>8} " \
             f"{'mem(B)':>9} {'time(s)':>8}"
    print(header)
    print("-" * len(header))
    for method in ("top-down", "semi-binary", "semi-greedy-core",
                   "semi-lazy-update"):
        result = max_truss(graph, method=method, context=EngineConfig())
        print(f"{result.algorithm:>18} {result.k_max:>6} "
              f"{result.io.read_ios:>8} {result.io.write_ios:>8} "
              f"{result.peak_memory_bytes:>9} {result.elapsed_seconds:>8.2f}")

    print("\nLHDH dynamic-heap capacity sweep (memory vs. spill I/O):")
    for capacity in (4, 64, 1024, graph.n):
        result = semi_lazy_update(graph, context=EngineConfig(), capacity=capacity)
        print(f"  capacity={capacity:>5}: io={result.io.total_ios:>7} "
              f"peak_mem={result.peak_memory_bytes:>8}B k_max={result.k_max}")


if __name__ == "__main__":
    main()
