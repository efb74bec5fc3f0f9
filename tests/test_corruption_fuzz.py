"""Exhaustive corruption fuzzing of every on-disk format (ISSUE PR-5).

For each durable artefact — binary graph images (``.rgr``), the WAL, and
version-2 checkpoints — build a small valid file, then sweep **every byte
position** twice:

* ``corrupt_byte`` (bit rot: XOR the byte at that offset), and
* ``tear_file`` (crash: truncate the file to that prefix length),

and assert the loader's contract at each position:

* it either succeeds or raises the typed error
  (:class:`~repro.errors.GraphFormatError`) — *never* an unhandled
  ``struct.error`` / ``IndexError`` / numpy crash;
* it is never **silently wrong**: any successful load must be verifiably
  consistent with the original content (equal graph, prefix of the
  original WAL records, identical restored state).

The trace-file reader gets the same byte sweep in
``tests/test_observability.py``'s torn-tail test; this module owns the
persistence formats.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dynamic import DynamicMaxTruss, load_checkpoint, save_checkpoint
from repro.errors import GraphFormatError, ReproError
from repro.graph.generators import paper_example_graph
from repro.persistence import (
    WriteAheadLog,
    corrupt_byte,
    is_rgr,
    read_rgr,
    read_wal,
    repair_wal,
    tear_file,
    write_rgr,
)

#: Loader failures must be this (or a subclass); anything else is a crash.
TYPED = GraphFormatError


def graphs_equal(a, b) -> bool:
    return a.n == b.n and sorted(map(tuple, a.edge_pairs())) == sorted(
        map(tuple, b.edge_pairs())
    )


# --------------------------------------------------------------------- #
# .rgr binary graph images
# --------------------------------------------------------------------- #


@pytest.fixture
def rgr(tmp_path):
    graph = paper_example_graph()
    path = tmp_path / "g.rgr"
    write_rgr(graph, path)
    return graph, path


class TestRgrFuzz:
    def test_every_flipped_byte_is_caught_or_harmless(self, rgr):
        graph, path = rgr
        pristine = path.read_bytes()
        for offset in range(len(pristine)):
            corrupt_byte(path, offset)
            try:
                loaded = read_rgr(path)
            except TYPED:
                pass
            else:
                # the checksum should make this unreachable, but if a
                # flip ever slips through it must not change the graph
                assert graphs_equal(loaded, graph), f"silent corruption @ {offset}"
            finally:
                path.write_bytes(pristine)

    def test_every_torn_prefix_is_caught(self, rgr):
        graph, path = rgr
        pristine = path.read_bytes()
        for keep in range(len(pristine)):
            tear_file(path, keep)
            with pytest.raises(TYPED):
                read_rgr(path)
            path.write_bytes(pristine)
        assert graphs_equal(read_rgr(path), graph)  # pristine still loads

    def test_is_rgr_never_raises_on_garbage(self, rgr, tmp_path):
        _graph, path = rgr
        pristine = path.read_bytes()
        for keep in (0, 1, 4, 7):
            tear_file(path, keep)
            assert is_rgr(path) in (True, False)
            path.write_bytes(pristine)
        junk = tmp_path / "junk"
        junk.write_bytes(b"\x89PNG\r\n")
        assert not is_rgr(junk)


# --------------------------------------------------------------------- #
# write-ahead log
# --------------------------------------------------------------------- #


@pytest.fixture
def wal(tmp_path):
    path = tmp_path / "wal.log"
    with WriteAheadLog(str(path)) as log:
        log.append("insert", [(0, 1), (1, 2)])
        log.append("delete", [(0, 1)])
        log.append("insert", [(2, 3)])
    records, _valid, torn = read_wal(str(path))
    assert not torn and len(records) == 3
    return records, path


class TestWalFuzz:
    def test_every_flipped_byte_yields_a_record_prefix(self, wal):
        """Bit rot anywhere must surface as a typed error (header) or as
        a clean torn tail: the reader returns a *prefix* of the original
        records — never a mangled or reordered record."""
        original, path = wal
        pristine = path.read_bytes()
        for offset in range(len(pristine)):
            corrupt_byte(path, offset)
            try:
                records, valid, torn = read_wal(str(path))
            except TYPED:
                pass
            else:
                assert records == original[: len(records)], (
                    f"silent corruption @ {offset}"
                )
                assert torn or records == original
                assert valid <= len(pristine)
            finally:
                path.write_bytes(pristine)

    def test_every_torn_prefix_yields_a_record_prefix(self, wal):
        original, path = wal
        pristine = path.read_bytes()
        for keep in range(len(pristine)):
            tear_file(path, keep)
            records, valid, torn = read_wal(str(path))
            # a cut exactly on a frame boundary is indistinguishable from
            # a shorter-but-whole log, so torn may legitimately be False
            # there — everywhere else the reader must flag the tear
            assert torn or valid == keep
            assert valid <= keep
            assert records == original[: len(records)]
            path.write_bytes(pristine)

    def test_repair_after_any_tear_leaves_a_clean_log(self, wal):
        original, path = wal
        pristine = path.read_bytes()
        for keep in (0, 5, len(pristine) // 2, len(pristine) - 1):
            tear_file(path, keep)
            repaired, dropped = repair_wal(str(path))
            assert dropped
            assert repaired == original[: len(repaired)]
            # post-repair, reopening rebuilds a whole log (including the
            # header when the tear ate it) and appends continue cleanly
            # from the surviving sequence number
            with WriteAheadLog(str(path)) as log:
                log.append("insert", [(5, 6)])
            records, _valid, torn = read_wal(str(path))
            assert not torn
            assert records[:-1] == repaired
            assert records[-1].seq == (repaired[-1].seq if repaired else 0) + 1
            path.write_bytes(pristine)


# --------------------------------------------------------------------- #
# version-2 checkpoints
# --------------------------------------------------------------------- #


@pytest.fixture
def checkpoint(tmp_path):
    state = DynamicMaxTruss(paper_example_graph())
    state.insert(0, 4)
    path = tmp_path / "state.ckpt"
    save_checkpoint(state, path, wal_seq=3)
    return state, path


class TestCheckpointFuzz:
    def test_every_flipped_byte_is_caught_or_harmless(self, checkpoint):
        state, path = checkpoint
        pristine = path.read_bytes()
        for offset in range(len(pristine)):
            corrupt_byte(path, offset)
            try:
                restored = load_checkpoint(path)
            except TYPED:
                pass
            else:
                assert restored.k_max == state.k_max, (
                    f"silent corruption @ {offset}"
                )
                assert restored.truss_pairs() == state.truss_pairs()
            finally:
                path.write_bytes(pristine)

    def test_every_torn_prefix_is_caught(self, checkpoint):
        state, path = checkpoint
        pristine = path.read_bytes()
        for keep in range(len(pristine)):
            tear_file(path, keep)
            with pytest.raises(TYPED):
                load_checkpoint(path)
            path.write_bytes(pristine)
        restored = load_checkpoint(path)
        assert restored.k_max == state.k_max

    def test_random_garbage_never_crashes_the_loader(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "garbage.ckpt"
        for size in (0, 1, 7, 8, 64, 256):
            path.write_bytes(rng.integers(0, 256, size, dtype=np.uint8).tobytes())
            with pytest.raises(ReproError):
                load_checkpoint(path)
