"""Tests for edge-list file I/O and the format table's reader."""

import pytest

from repro.errors import GraphFormatError
from repro.graph.edgelist import read_text_edgelist, write_text_edgelist
from repro.graph.formats import (
    GRAPH_FORMATS,
    format_for_suffix,
    graph_format,
    read_graph,
)
from repro.graph.generators import complete_graph, paper_example_graph


class TestText:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "g.txt"
        g = paper_example_graph()
        write_text_edgelist(g, path)
        back = read_text_edgelist(path)
        assert back.edge_pairs() == g.edge_pairs()

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# comment\n% also comment\n0 1\n1 2\n")
        g = read_text_edgelist(path)
        assert g.m == 2

    def test_extra_fields_ignored(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 0.5\n1 2 0.25\n")
        assert read_text_edgelist(path).m == 2

    def test_compaction(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("100 200\n200 300\n")
        g = read_text_edgelist(path, compact=True)
        assert g.n == 3
        assert g.edge_pairs() == [(0, 1), (1, 2)]

    def test_no_compaction(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3 7\n")
        g = read_text_edgelist(path, compact=False)
        assert g.n == 8

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0\n")
        with pytest.raises(GraphFormatError):
            read_text_edgelist(path)

    def test_non_integer(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("a b\n")
        with pytest.raises(GraphFormatError):
            read_text_edgelist(path)

    def test_negative_id(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("-1 2\n")
        with pytest.raises(GraphFormatError):
            read_text_edgelist(path)


class TestReadGraph:
    @pytest.mark.parametrize(
        "suffix, expected",
        [(".txt", "text"), (".rgr", "rgr"), (".metis", "metis"),
         (".graph", "metis"), (".cgr", "compressed")],
    )
    def test_roundtrip_by_suffix(self, tmp_path, suffix, expected):
        path = tmp_path / f"g{suffix}"
        g = paper_example_graph()
        assert format_for_suffix(path) == expected
        GRAPH_FORMATS[expected][1](g, path)
        assert graph_format(path) == expected
        back = read_graph(path)
        assert back.n == g.n
        assert back.edge_pairs() == g.edge_pairs()

    @pytest.mark.parametrize("name", ["rgr", "compressed"])
    def test_binary_image_detected_by_magic(self, tmp_path, name):
        path = tmp_path / "g.txt"
        g = complete_graph(6)
        GRAPH_FORMATS[name][1](g, path)
        assert graph_format(path) == name
        assert read_graph(path).edge_pairs() == g.edge_pairs()

    def test_unknown_suffix_reads_as_text(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("0 1\n1 2\n")
        assert format_for_suffix(path) == "text"
        assert graph_format(path) == "text"
        assert read_graph(path).edge_pairs() == [(0, 1), (1, 2)]
