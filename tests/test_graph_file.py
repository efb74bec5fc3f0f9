"""The ``.rgr`` binary CSR image: round-trips, validation, CLI wiring.

A format that skips the per-edge CSR rebuild must prove it reconstructs
*exactly* the structure the loop would have built — same edge array, same
offsets/adjacency/edge-id layout, same downstream answers — and that its
checksum and structural validation reject every mangled byte stream
rather than deserialising garbage.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given

from repro.cli import main
from repro.core.api import max_truss
from repro.errors import GraphFormatError
from repro.graph.formats import is_rgr, read_rgr, write_rgr
from repro.graph.generators import gnm_random, paper_example_graph
from repro.graph.memgraph import Graph
from repro.persistence import (
    corrupt_byte,
    graph_from_rgr_bytes,
    graph_to_rgr_bytes,
)

from conftest import small_graphs


def _assert_graphs_identical(left: Graph, right: Graph) -> None:
    assert left.n == right.n and left.m == right.m
    np.testing.assert_array_equal(left.edges, right.edges)
    np.testing.assert_array_equal(left.offsets, right.offsets)
    np.testing.assert_array_equal(left.adj, right.adj)
    np.testing.assert_array_equal(left.adj_eids, right.adj_eids)


class TestRoundtrip:
    def test_paper_example(self, tmp_path):
        path = tmp_path / "g.rgr"
        graph = paper_example_graph()
        size = write_rgr(graph, path)
        assert size == path.stat().st_size
        assert is_rgr(path)
        _assert_graphs_identical(read_rgr(path), graph)

    @given(graph=small_graphs())
    def test_arbitrary_graphs(self, graph):
        payload = graph_to_rgr_bytes(graph)
        _assert_graphs_identical(graph_from_rgr_bytes(payload), graph)

    def test_empty_graph(self, tmp_path):
        path = tmp_path / "empty.rgr"
        write_rgr(Graph.empty(0), path)
        restored = read_rgr(path)
        assert restored.n == 0 and restored.m == 0

    def test_loaded_graph_computes_identically(self, tmp_path):
        path = tmp_path / "g.rgr"
        graph = gnm_random(50, 180, seed=9)
        write_rgr(graph, path)
        direct = max_truss(graph)
        loaded = max_truss(read_rgr(path))
        assert direct.k_max == loaded.k_max
        assert direct.truss_edge_count == loaded.truss_edge_count


class TestValidation:
    def _image(self, tmp_path):
        path = tmp_path / "g.rgr"
        write_rgr(gnm_random(30, 80, seed=1), path)
        return path

    def test_every_corrupted_byte_region_is_rejected(self, tmp_path):
        path = self._image(tmp_path)
        size = path.stat().st_size
        # Magic, header counts, each array region, final byte.
        for offset in [0, 5, 9, 30, size // 2, size - 1]:
            write_rgr(gnm_random(30, 80, seed=1), path)
            corrupt_byte(path, offset)
            with pytest.raises(GraphFormatError):
                read_rgr(path)

    def test_truncation_rejected(self, tmp_path):
        path = self._image(tmp_path)
        payload = path.read_bytes()
        for keep in [0, 3, 24, len(payload) - 8]:
            path.write_bytes(payload[:keep])
            with pytest.raises(GraphFormatError):
                read_rgr(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = self._image(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(GraphFormatError, match="body"):
            read_rgr(path)

    def test_asymmetric_adjacency_rejected(self):
        graph = paper_example_graph()
        payload = bytearray(graph_to_rgr_bytes(graph))
        # A well-checksummed but structurally broken producer: flip one
        # adjacency entry and restamp the CRC.
        import struct
        import zlib

        header = struct.Struct("<4sIQQI")
        offset = header.size + 8 * (graph.n + 1)  # first adj slot
        value = int(np.frombuffer(bytes(payload[offset:offset + 8]), "<i8")[0])
        payload[offset:offset + 8] = np.int64((value + 1) % graph.n).tobytes()
        magic, version, n, m, _ = header.unpack_from(bytes(payload))
        payload[:header.size] = header.pack(
            magic, version, n, m, zlib.crc32(bytes(payload[header.size:]))
        )
        with pytest.raises(GraphFormatError):
            graph_from_rgr_bytes(bytes(payload))

    def test_is_rgr_on_non_rgr(self, tmp_path):
        other = tmp_path / "not.rgr"
        other.write_text("0 1\n")
        assert not is_rgr(other)
        assert not is_rgr(tmp_path / "missing.rgr")


class TestCli:
    def test_convert_and_compute(self, tmp_path, capsys):
        rgr = tmp_path / "g.rgr"
        assert main(["convert", "cagrqc-s", str(rgr)]) == 0
        assert is_rgr(rgr)
        assert main(["compute", str(rgr)]) == 0
        out = capsys.readouterr().out
        assert "k_max: 12" in out

    def test_convert_roundtrip_through_text(self, tmp_path, capsys):
        rgr = tmp_path / "g.rgr"
        text = tmp_path / "g.txt"
        assert main(["convert", "cagrqc-s", str(rgr)]) == 0
        assert main(["convert", str(rgr), str(text), "--to", "text"]) == 0
        direct = read_rgr(rgr)
        from repro.graph.edgelist import read_text_edgelist

        # Text edge lists compact vertex ids (isolated vertices vanish),
        # so compare label-invariant structure: size and decomposition.
        round_tripped = read_text_edgelist(text)
        assert round_tripped.m == direct.m
        assert max_truss(round_tripped).k_max == max_truss(direct).k_max

    def test_compute_rgr_with_file_backend(self, tmp_path, capsys):
        rgr = tmp_path / "g.rgr"
        main(["convert", "cagrqc-s", str(rgr)])
        data_dir = tmp_path / "spill"
        data_dir.mkdir()
        assert main([
            "compute", str(rgr), "--backend", "file", "--fsync", "close",
            "--data-dir", str(data_dir), "--format", "text",
        ]) == 0
        out = capsys.readouterr().out
        assert "physical bytes read" in out
        # The report's physical rows include the closing fsync.
        assert re.search(r"^fsyncs +1 *$", out, re.MULTILINE)
        assert list(data_dir.iterdir()) == []  # spill removed at close

    def test_corrupt_rgr_fails_cleanly(self, tmp_path, capsys):
        rgr = tmp_path / "g.rgr"
        main(["convert", "cagrqc-s", str(rgr)])
        corrupt_byte(rgr, rgr.stat().st_size // 2)
        assert main(["compute", str(rgr)]) == 1
        assert "checksum" in capsys.readouterr().err
