"""The k_max-truss as a building block: the paper's §I applications.

Demonstrates on one attributed collaboration-style graph:

1. **community search** — the maximal maximum-trussness community around
   query members (Huang et al., cited in §I);
2. **batch maintenance** — a burst of updates resolved with a single
   global recomputation;
3. **FPT parameterisation** — k_max bounding the clique structure.

Run:  python examples/applications_demo.py
"""

from repro.analysis import clique_number
from repro.applications import truss_community
from repro.baselines import max_truss_edges
from repro.dynamic import DynamicMaxTruss
from repro.graph.generators import word_association


def main() -> None:
    graph, words = word_association(
        num_communities=3, community_size=10, intra_missing=0.12,
        noise_words=30, seed=4,
    )
    k_max, _ = max_truss_edges(graph)
    print(f"attributed graph: {graph.n} vertices, {graph.m} edges, "
          f"k_max={k_max}\n")

    # 1. community search around two "music" members
    music = [v for v, w in enumerate(words) if w.startswith("music")][:2]
    community = truss_community(graph, music)
    print(f"community search for {[words[q] for q in community.query]}:")
    print(f"  k={community.k}, members: "
          + ", ".join(sorted(words[v] for v in community.vertices)) + "\n")

    # 2. batch maintenance: a burst of noise-edge churn, one recompute
    state = DynamicMaxTruss(graph)
    burst = []
    noise = [v for v, w in enumerate(words) if w.startswith("noise")]
    for index in range(6):
        u, v = noise[index], noise[index + 6]
        burst.append(
            ("delete", u, v) if state.graph.has_edge(u, v) else ("insert", u, v)
        )
    result = state.apply_batch(burst)
    print(f"batch of {result.operations} noise updates resolved as "
          f"'{result.mode}' (k_max {result.k_max_before} -> "
          f"{result.k_max_after}, io={result.io.total_ios})\n")

    # 3. FPT parameterisation: k_max bounds the clique structure
    omega = clique_number(graph)
    triangles = graph.triangle_count()
    print(f"clique number ω = {omega} <= k_max = {k_max} (the paper's FPT "
          f"parameter bound); triangle count = {triangles}")


if __name__ == "__main__":
    main()
