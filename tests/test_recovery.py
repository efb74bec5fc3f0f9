"""Kill-recovery: crash a maintenance stream, recover, demand exactness.

The acceptance bar for the persistence subsystem: inject a crash at an
arbitrary point of a dynamic update stream (torn WAL write, clean
fail-after-N), run :func:`repro.persistence.recover`, and the recovered
state's answers must equal a from-scratch decomposition of exactly the
operations that were applied before the crash — torn records detected and
dropped, checkpointed records never double-applied, sequence numbers
strictly increasing across every crash/recover generation.
"""

from __future__ import annotations

import os

import pytest

from repro.baselines import max_truss_edges
from repro.dynamic import DynamicMaxTruss
from repro.errors import GraphFormatError
from repro.graph.generators import gnm_random, paper_example_graph
from repro.persistence import (
    CHECKPOINT_NAME,
    WAL_NAME,
    FaultInjector,
    SimulatedCrash,
    durable_from_graph,
    read_wal,
    recover,
)

SEED = 3


def _graph():
    return gnm_random(40, 120, seed=SEED)


def _updates(graph, count=8):
    """A mixed stream whose inserts are guaranteed absent."""
    present = {tuple(map(int, row)) for row in graph.edges}
    inserts = []
    u, v = 0, 1
    while len(inserts) < count - 2:
        edge = (min(u, v), max(u, v))
        if u != v and edge not in present:
            inserts.append(("insert", *edge))
            present.add(edge)
        v += 7
        if v >= graph.n:
            u, v = u + 3, (u + 4) % graph.n
    deletes = [("delete", int(r[0]), int(r[1])) for r in graph.edges[:2]]
    return inserts[:3] + deletes[:1] + inserts[3:5] + deletes[1:] + inserts[5:]


def _drive(durable, updates):
    """Apply updates until a crash; returns the ops that were applied."""
    applied = []
    for op, u, v in updates:
        try:
            getattr(durable, op)(u, v)
        except SimulatedCrash:
            return applied, True
        applied.append((op, u, v))
    return applied, False


def _expected_state(applied):
    state = DynamicMaxTruss(_graph())
    if applied:
        state.apply_batch(applied)
    return state


class TestKillRecovery:
    # Each insert/delete appends exactly one WAL record, so a state's
    # applied_seq doubles as "how many stream ops are in it". A caller
    # whose op crashed mid-call cannot know whether the record became
    # durable before the fault, so the recovered prefix may legitimately
    # run one op past what the caller saw complete — never further, and
    # never shorter (a durable op is never lost).

    def _check_exact_prefix(self, recovered, updates, applied):
        durable_ops = recovered.applied_seq
        assert len(applied) <= durable_ops <= len(applied) + 1
        expected = _expected_state(updates[:durable_ops])
        assert recovered.state.k_max == expected.k_max
        assert recovered.state.truss_pairs() == expected.truss_pairs()

    @pytest.mark.parametrize("torn_at", range(1, 14))
    def test_torn_write_at_every_position(self, torn_at, tmp_path):
        """Crash the stream at every write, recover, compare exactly."""
        updates = _updates(_graph())
        injector = FaultInjector(torn_write_at=torn_at)
        applied, crashed = [], True
        try:
            durable = durable_from_graph(
                _graph(), tmp_path, checkpoint_every=3, file_ops=injector
            )
        except SimulatedCrash:
            durable = None
        if durable is not None:
            applied, crashed = _drive(durable, updates)
            if not crashed:
                durable.close()
        recovered = recover(tmp_path)
        self._check_exact_prefix(recovered, updates, applied)
        recovered.close()

    @pytest.mark.parametrize("fail_after", [3, 7, 12, 20])
    def test_clean_crash_between_ops(self, fail_after, tmp_path):
        updates = _updates(_graph())
        injector = FaultInjector(fail_after_ops=fail_after)
        try:
            durable = durable_from_graph(
                _graph(), tmp_path, checkpoint_every=4, file_ops=injector
            )
        except SimulatedCrash:
            durable = None
        applied = []
        if durable is not None:
            applied, crashed = _drive(durable, updates)
            if not crashed:
                durable.close()
        recovered = recover(tmp_path)
        self._check_exact_prefix(recovered, updates, applied)
        recovered.close()

    def test_recovered_state_matches_fresh_decomposition(self, tmp_path):
        """The headline acceptance check: recovery == from-scratch truss."""
        updates = _updates(_graph())
        injector = FaultInjector(torn_write_at=9)
        durable = durable_from_graph(
            _graph(), tmp_path, checkpoint_every=3, file_ops=injector
        )
        applied, crashed = _drive(durable, updates)
        assert crashed
        recovered = recover(tmp_path)
        # Rebuild the surviving graph independently and decompose it.
        durable_ops = recovered.applied_seq
        assert len(applied) <= durable_ops <= len(applied) + 1
        mutable = _graph().to_mutable()
        for op, u, v in updates[:durable_ops]:
            if op == "insert":
                mutable.insert_edge(u, v)
            else:
                mutable.delete_edge(u, v)
        frozen, _ = mutable.to_graph()
        expected_k, expected_edges = max_truss_edges(frozen)
        assert recovered.state.k_max == expected_k
        assert recovered.state.truss_pairs() == expected_edges
        info = recovered.last_recovery
        assert info.wal_torn
        assert info.replayed_ops == durable_ops - info.checkpoint_seq
        recovered.close()


class TestGroupCommitCrashes:
    """Crash matrix at group-commit boundaries.

    ``DurableMaintenance.apply`` writes a whole batch as one WAL group
    (one write + one fsync). A crash tearing that write must leave a
    durable prefix of the group's *records*, and recovery must equal a
    from-scratch decomposition of exactly the operations those surviving
    records carry — at every tear position and when the group's own
    barrier is the thing that dies.
    """

    def _surviving_ops(self, recovered, *batches):
        """The op-prefix implied by the records recovery actually saw.

        Records are framed per ``apply`` call, so runs are computed per
        batch (a same-op run spanning two batches is two records).
        """
        from repro.persistence.recovery import _runs

        runs = [run for batch in batches for run in _runs(batch)]
        count = recovered.last_recovery.replayed_records
        assert count <= len(runs)
        ops = []
        for op, edges in runs[:count]:
            ops.extend((op, u, v) for u, v in edges)
        return ops

    def _check_recovery(self, tmp_path, updates):
        recovered = recover(tmp_path)
        survived = self._surviving_ops(recovered, updates)
        expected = _expected_state(survived)
        assert recovered.state.k_max == expected.k_max
        assert recovered.state.truss_pairs() == expected.truss_pairs()
        recovered.close()
        return len(survived)

    @pytest.mark.parametrize(
        "fraction", [0.0, 0.1, 0.25, 0.4, 0.55, 0.7, 0.85]
    )
    def test_torn_group_at_every_position(self, fraction, tmp_path):
        updates = _updates(_graph())
        injector = FaultInjector(torn_write_at=2, torn_fraction=fraction)
        durable = durable_from_graph(_graph(), tmp_path, file_ops=injector)
        with pytest.raises(SimulatedCrash):
            durable.apply_batch(updates)
        survived = self._check_recovery(tmp_path, updates)
        assert survived < len(updates)  # the tear lost at least the tail

    def test_fsync_failure_after_partial_group(self, tmp_path):
        """The group's own barrier dies: the write happened, durability is
        undecided — recovery must be exact for whatever prefix survived
        (here: anywhere from nothing to the whole group)."""
        updates = _updates(_graph())
        # Header write+fsync are ops 1-2, the group write is op 3; crash
        # at op 4 = the group's fsync itself.
        injector = FaultInjector(fail_after_ops=3)
        durable = durable_from_graph(_graph(), tmp_path, file_ops=injector)
        with pytest.raises(SimulatedCrash):
            durable.apply_batch(updates)
        survived = self._check_recovery(tmp_path, updates)
        assert survived <= len(updates)

    def test_torn_second_group(self, tmp_path):
        """First batch durable and checkpoint-free; the second group
        tears. Recovery = batch one + surviving prefix of batch two."""
        updates = _updates(_graph(), count=12)
        first, second = updates[:5], updates[5:]
        injector = FaultInjector(torn_write_at=3, torn_fraction=0.4)
        durable = durable_from_graph(_graph(), tmp_path, file_ops=injector)
        durable.apply_batch(first)
        with pytest.raises(SimulatedCrash):
            durable.apply_batch(second)
        recovered = recover(tmp_path)
        survived_second = self._surviving_ops(
            recovered, first, second
        )[len(first):]
        expected = _expected_state(first + survived_second)
        assert recovered.state.k_max == expected.k_max
        assert recovered.state.truss_pairs() == expected.truss_pairs()
        # Batch one was group-committed before the crash: never lost.
        assert recovered.last_recovery.replayed_ops >= len(first)
        recovered.close()

    def test_crash_before_group_write_loses_whole_batch(self, tmp_path):
        updates = _updates(_graph())
        injector = FaultInjector(fail_after_ops=2)  # header only
        durable = durable_from_graph(_graph(), tmp_path, file_ops=injector)
        with pytest.raises(SimulatedCrash):
            durable.apply_batch(updates)
        survived = self._check_recovery(tmp_path, updates)
        assert survived == 0


class TestLifecycle:
    def test_clean_close_and_recover(self, tmp_path):
        durable = durable_from_graph(paper_example_graph(), tmp_path)
        durable.insert(0, 4)
        durable.close()
        recovered = recover(tmp_path)
        expected = DynamicMaxTruss(paper_example_graph())
        expected.insert(0, 4)
        assert recovered.state.k_max == expected.k_max
        assert not recovered.last_recovery.wal_torn
        recovered.close()

    def test_checkpoint_skips_already_applied_records(self, tmp_path):
        durable = durable_from_graph(
            paper_example_graph(), tmp_path, checkpoint_every=1
        )
        durable.insert(0, 4)  # auto-checkpoint fires, WAL resets
        durable.close()
        recovered = recover(tmp_path)
        assert recovered.last_recovery.replayed_records == 0
        assert recovered.last_recovery.checkpoint_seq == 1
        recovered.close()

    def test_sequences_increase_across_generations(self, tmp_path):
        durable = durable_from_graph(
            paper_example_graph(), tmp_path, checkpoint_every=1
        )
        durable.insert(0, 4)
        durable.close()
        recovered = recover(tmp_path)
        recovered.insert(2, 7)
        assert recovered.applied_seq > recovered.last_recovery.checkpoint_seq
        recovered.close()

    def test_apply_batch_logs_runs_in_order(self, tmp_path):
        graph = _graph()
        stream = _updates(graph)
        inserts = [op for op in stream if op[0] == "insert"][:2]
        delete = next(op for op in stream if op[0] == "delete")
        batch = inserts + [delete]
        durable = durable_from_graph(graph, tmp_path)
        durable.apply_batch(batch)
        durable.close()
        recovered = recover(tmp_path)
        assert recovered.last_recovery.replayed_records == 2  # two runs
        assert recovered.last_recovery.replayed_ops == 3
        expected = _expected_state(batch)
        assert recovered.state.truss_pairs() == expected.truss_pairs()
        recovered.close()

    def test_fresh_directory_refuses_existing_checkpoint(self, tmp_path):
        durable = durable_from_graph(paper_example_graph(), tmp_path)
        durable.close()
        with pytest.raises(GraphFormatError, match="recover"):
            durable_from_graph(paper_example_graph(), tmp_path)

    def test_recover_requires_checkpoint(self, tmp_path):
        with pytest.raises(GraphFormatError, match="no checkpoint"):
            recover(tmp_path)

    def test_directory_layout(self, tmp_path):
        durable = durable_from_graph(paper_example_graph(), tmp_path)
        durable.insert(0, 4)
        durable.close()
        assert sorted(os.listdir(tmp_path)) == sorted(
            [CHECKPOINT_NAME, WAL_NAME]
        )

    def test_context_manager(self, tmp_path):
        with durable_from_graph(paper_example_graph(), tmp_path) as durable:
            durable.insert(0, 4)
        recovered = recover(tmp_path)
        assert recovered.state.k_max == 5
        recovered.close()


class TestRejectedUpdates:
    """An update the state rejects is checked before it is logged: it
    never reaches ``wal.log``, and the directory still recovers to the
    live state (a logged rejection would fail every later recovery)."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda d: d.insert(0, 1), "existing edge"),
            (lambda d: d.delete(0, 7), "absent edge"),
            (lambda d: d.insert(3, 3), "self-loops"),
            (lambda d: d.delete(3, 3), "self-loops"),
            (lambda d: d.apply_batch([("insert", 0, 9), ("insert", 0, 1)]),
             "existing edge"),
            (lambda d: d.apply_batch([("insert", 0, 9), ("delete", 0, 7)]),
             "absent edge"),
            (lambda d: d.apply_batch([("insert", 0, 9), ("insert", 3, 3)]),
             "self-loops"),
        ],
        ids=[
            "insert-present", "delete-absent", "insert-self-loop",
            "delete-self-loop", "batch-insert-present", "batch-delete-absent",
            "batch-self-loop",
        ],
    )
    def test_rejected_update_is_never_logged(self, tmp_path, call, message):
        durable = durable_from_graph(paper_example_graph(), tmp_path)
        durable.insert(0, 4)
        wal_path = os.path.join(tmp_path, WAL_NAME)
        logged, _, _ = read_wal(wal_path)
        with pytest.raises(GraphFormatError, match=message):
            call(durable)
        assert read_wal(wal_path)[0] == logged
        assert not durable.state.graph.has_edge(0, 9)
        durable.apply_batch([("insert", 2, 7), ("delete", 4, 5)])
        live_k, live_pairs = durable.state.k_max, durable.state.truss_pairs()
        durable.close()
        recovered = recover(tmp_path)
        assert recovered.last_recovery.replayed_ops == 3
        assert recovered.state.k_max == live_k
        assert recovered.state.truss_pairs() == live_pairs
        recovered.close()
