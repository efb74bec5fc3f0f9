"""Tests for METIS and compressed binary formats."""

import pytest
from hypothesis import given

from repro.errors import GraphFormatError
from repro.graph.formats import (
    compress_graph,
    decompress_graph,
    read_compressed,
    read_metis,
    write_compressed,
    write_metis,
)
from repro.graph.generators import complete_graph, paper_example_graph
from repro.graph.memgraph import Graph

from conftest import small_graphs


class TestMetis:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "g.metis"
        g = paper_example_graph()
        write_metis(g, path)
        back = read_metis(path)
        assert back.n == g.n
        assert back.edge_pairs() == g.edge_pairs()

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "g.metis"
        path.write_text("% comment\n3 2\n2\n1 3\n2\n")
        g = read_metis(path)
        assert g.edge_pairs() == [(0, 1), (1, 2)]

    def test_isolated_vertices(self, tmp_path):
        path = tmp_path / "g.metis"
        g = Graph.from_edges([(0, 1)], n=4)
        write_metis(g, path)
        assert read_metis(path).n == 4

    def test_empty_file(self, tmp_path):
        path = tmp_path / "g.metis"
        path.write_text("")
        with pytest.raises(GraphFormatError):
            read_metis(path)

    def test_header_mismatch_vertices(self, tmp_path):
        path = tmp_path / "g.metis"
        path.write_text("3 1\n2\n1\n")  # only 2 adjacency lines
        with pytest.raises(GraphFormatError):
            read_metis(path)

    def test_header_mismatch_edges(self, tmp_path):
        path = tmp_path / "g.metis"
        path.write_text("2 5\n2\n1\n")
        with pytest.raises(GraphFormatError):
            read_metis(path)

    def test_neighbour_out_of_range(self, tmp_path):
        path = tmp_path / "g.metis"
        path.write_text("2 1\n9\n1\n")
        with pytest.raises(GraphFormatError):
            read_metis(path)

    def test_non_integer(self, tmp_path):
        path = tmp_path / "g.metis"
        path.write_text("2 1\nx\n1\n")
        with pytest.raises(GraphFormatError):
            read_metis(path)

    @given(small_graphs(max_n=14))
    def test_roundtrip_property(self, g):
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.metis"
            write_metis(g, path)
            back = read_metis(path)
        assert back.n == g.n
        assert back.edge_pairs() == g.edge_pairs()


class TestCompressed:
    def test_roundtrip(self):
        g = paper_example_graph()
        assert decompress_graph(compress_graph(g)).edge_pairs() == g.edge_pairs()

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "g.srtz"
        g = complete_graph(8)
        size = write_compressed(g, path)
        assert size > 0
        assert read_compressed(path).edge_pairs() == g.edge_pairs()

    def test_smaller_than_raw_binary(self):
        g = complete_graph(30)
        assert len(compress_graph(g)) < 16 * g.m  # fixed int64 pairs

    def test_bad_magic(self):
        with pytest.raises(GraphFormatError):
            decompress_graph(b"\x00" * 32)

    def test_truncated(self):
        g = complete_graph(5)
        payload = compress_graph(g)
        with pytest.raises(GraphFormatError):
            decompress_graph(payload[:-2])

    def test_short_header(self):
        with pytest.raises(GraphFormatError):
            decompress_graph(b"abc")

    @given(small_graphs(max_n=16))
    def test_roundtrip_property(self, g):
        back = decompress_graph(compress_graph(g))
        assert back.n == g.n
        assert back.edge_pairs() == g.edge_pairs()
