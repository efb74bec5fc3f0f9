"""Stateful hypothesis testing: structures against pure-Python models.

These machines drive LinearHeap / LHDH / DynamicMaxTruss through arbitrary
interleaved operation sequences and compare every observable against a
trivially-correct model — the strongest structural guarantee in the suite.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.graph.memgraph import Graph
from repro.storage import BlockDevice, MemoryMeter
from repro.structures import LHDH, LinearHeap

MAX_EDGES = 24
MAX_KEY = 12


class LinearHeapMachine(RuleBasedStateMachine):
    """LinearHeap vs a dict model."""

    def __init__(self):
        super().__init__()
        device = BlockDevice(block_size=64, cache_blocks=8)
        self.heap = LinearHeap(device, num_edges=MAX_EDGES, max_key=MAX_KEY)
        self.model = {}

    @rule(eid=st.integers(0, MAX_EDGES - 1), key=st.integers(0, MAX_KEY))
    def insert(self, eid, key):
        if eid in self.model:
            return
        self.heap.insert(eid, key)
        self.model[eid] = key

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def remove(self, data):
        eid = data.draw(st.sampled_from(sorted(self.model)))
        assert self.heap.remove(eid) == self.model.pop(eid)

    @precondition(lambda self: self.model)
    @rule(data=st.data(), key=st.integers(0, MAX_KEY))
    def update_key(self, data, key):
        eid = data.draw(st.sampled_from(sorted(self.model)))
        self.heap.update_key(eid, key)
        self.model[eid] = key

    @precondition(lambda self: self.model)
    @rule()
    def pop_min(self):
        eid, key = self.heap.pop_min()
        assert key == min(self.model.values())
        assert self.model.pop(eid) == key

    @invariant()
    def sizes_match(self):
        assert len(self.heap) == len(self.model)

    @invariant()
    def min_matches(self):
        expected = min(self.model.values()) if self.model else None
        assert self.heap.min_key() == expected


class LHDHMachine(RuleBasedStateMachine):
    """LHDH (decrement/pop protocol) vs a dict model."""

    def __init__(self):
        super().__init__()
        device = BlockDevice(block_size=64, cache_blocks=8)
        keys = [(i * 7) % MAX_KEY + 1 for i in range(MAX_EDGES)]
        self.heap = LHDH(device, range(MAX_EDGES), keys, capacity=4,
                         memory=MemoryMeter())
        self.model = {i: keys[i] for i in range(MAX_EDGES)}

    @precondition(lambda self: self.model)
    @rule()
    def pop_min(self):
        eid, key = self.heap.pop_min()
        assert key == min(self.model.values())
        assert self.model.pop(eid) == key

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def decrement_above_min(self, data):
        eid = data.draw(st.sampled_from(sorted(self.model)))
        level = min(self.model.values()) - 1
        if self.model[eid] > level and self.model[eid] > 1:
            self.heap.decrement_edge(eid, level)
            self.model[eid] -= 1
        self.heap.after_kernel()

    @rule(eid=st.integers(0, MAX_EDGES - 1))
    def probe(self, eid):
        assert self.heap.key_if_alive(eid) == self.model.get(eid)

    @invariant()
    def min_matches(self):
        expected = min(self.model.values()) if self.model else None
        assert self.heap.min_key() == expected


class MaintenanceMachine(RuleBasedStateMachine):
    """DynamicMaxTruss vs recompute-from-scratch on every step."""

    N = 9

    def __init__(self):
        super().__init__()
        from repro.dynamic import DynamicMaxTruss

        start = Graph.from_edges([(0, 1), (1, 2), (0, 2)], n=self.N)
        self.state = DynamicMaxTruss(start)
        self.mutable = start.to_mutable()

    @rule(u=st.integers(0, N - 1), v=st.integers(0, N - 1))
    def toggle(self, u, v):
        if u == v:
            return
        if self.mutable.has_edge(u, v):
            self.mutable.delete_edge(u, v)
            self.state.delete(u, v)
        else:
            self.mutable.insert_edge(u, v)
            self.state.insert(u, v)

    @invariant()
    def matches_scratch(self):
        from repro.baselines import max_truss_edges

        frozen, _ = self.mutable.to_graph()
        expected_k, expected_edges = max_truss_edges(frozen)
        assert self.state.k_max == expected_k
        assert self.state.truss_pairs() == expected_edges


TestLinearHeapMachine = LinearHeapMachine.TestCase
TestLinearHeapMachine.settings = settings(
    max_examples=20, stateful_step_count=30, deadline=None
)
TestLHDHMachine = LHDHMachine.TestCase
TestLHDHMachine.settings = settings(
    max_examples=20, stateful_step_count=30, deadline=None
)
TestMaintenanceMachine = MaintenanceMachine.TestCase
TestMaintenanceMachine.settings = settings(
    max_examples=10, stateful_step_count=15, deadline=None
)
