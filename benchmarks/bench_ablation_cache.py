"""Ablation: buffer-pool size and replacement policy.

The I/O model's only memory knob is the buffer pool (``M/B`` frames). This
bench quantifies two sensitivities on a fixed SemiLazyUpdate run:

* **pool size** — from starved (8 frames) to everything-fits; the paper's
  semi-external regime lives at the left end;
* **replacement policy** — LRU (the analysis model) vs FIFO vs CLOCK on a
  semi-external-sized pool.

Table: benchmarks/results/ablation_cache.txt.
"""

import pytest

from repro import EngineConfig, semi_lazy_update

from conftest import BenchReport

REPORT = BenchReport(
    "ablation_cache",
    ["variant", "cache_blocks", "policy", "io_total", "k_max"],
)

POOL_SIZES = [8, 16, 64, 256, 4096]
POLICIES = ["lru", "fifo", "clock"]


@pytest.mark.parametrize("cache_blocks", POOL_SIZES)
def test_pool_size_sweep(benchmark, graphs, cache_blocks):
    graph = graphs("wikipedia-s")
    outcome = {}

    def run():
        config = EngineConfig(block_size=4096, cache_blocks=cache_blocks)
        outcome["result"] = semi_lazy_update(graph, context=config)

    benchmark.pedantic(run, rounds=1, iterations=1)
    result = outcome["result"]
    REPORT.add("pool-size", cache_blocks, "lru", result.io.total_ios,
               result.k_max)
    REPORT.write()


@pytest.mark.parametrize("policy", POLICIES)
def test_policy_sweep(benchmark, graphs, policy):
    graph = graphs("wikipedia-s")
    outcome = {}

    def run():
        config = EngineConfig(block_size=4096, cache_blocks=16, cache_policy=policy)
        outcome["result"] = semi_lazy_update(graph, context=config)

    benchmark.pedantic(run, rounds=1, iterations=1)
    result = outcome["result"]
    REPORT.add("policy", 16, policy, result.io.total_ios, result.k_max)
    REPORT.write()


def test_cache_shape(benchmark, graphs):
    """Bigger pools never cost more I/O; LRU beats FIFO on this pattern."""
    graph = graphs("wikipedia-s")
    outcome = {}

    def run():
        ios = {}
        for blocks in (8, 4096):
            config = EngineConfig(block_size=4096, cache_blocks=blocks)
            ios[blocks] = semi_lazy_update(graph, context=config).io.total_ios
        for policy in ("lru", "fifo"):
            config = EngineConfig(block_size=4096, cache_blocks=16,
                                  cache_policy=policy)
            ios[policy] = semi_lazy_update(graph, context=config).io.total_ios
        outcome["ios"] = ios

    benchmark.pedantic(run, rounds=1, iterations=1)
    ios = outcome["ios"]
    assert ios[4096] <= ios[8]
    assert ios["lru"] <= ios["fifo"]
