"""Unit tests for graph I/O."""

import re

import numpy as np
import pytest

from repro.api import ReleaseSpec
from repro.graphs.attributed import AttributedGraph
from repro.graphs.io import (
    load_attributed_graph,
    load_graph_json,
    read_attribute_table,
    read_edge_list,
    save_graph_json,
    write_attribute_table,
    write_edge_list,
)


@pytest.fixture
def edge_file(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("# comment\n"
                    "alice bob\n"
                    "bob carol\n"
                    "carol alice\n"
                    "dave dave\n")  # self-loop should be dropped on load
    return path


@pytest.fixture
def attribute_file(tmp_path):
    path = tmp_path / "attrs.txt"
    path.write_text("alice 1 0\nbob 0 1\ncarol 1 1\ndave 0 0\n")
    return path


class TestReaders:
    def test_read_edge_list(self, edge_file):
        edges = read_edge_list(edge_file)
        assert ("alice", "bob") in edges
        assert len(edges) == 4

    def test_read_edge_list_bad_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("only_one_column\n")
        with pytest.raises(ValueError):
            read_edge_list(path)

    def test_read_attribute_table(self, attribute_file):
        table = read_attribute_table(attribute_file)
        assert table["alice"] == [1, 0]
        assert len(table) == 4

    def test_read_attribute_table_non_integer(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("alice yes\n")
        with pytest.raises(ValueError):
            read_attribute_table(path)

    @pytest.mark.parametrize("value", ["2", "-1", "7"])
    def test_read_attribute_table_non_binary(self, tmp_path, value):
        path = tmp_path / "attrs.txt"
        path.write_text(f"# header\nalice 1 0\nbob 0 {value}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3:") + ".*0 or 1"):
            read_attribute_table(path)


class TestLoadAttributedGraph:
    def test_load_with_attributes(self, edge_file, attribute_file):
        graph, mapping = load_attributed_graph(edge_file, attribute_file)
        assert graph.num_nodes == 4
        assert graph.num_edges == 3  # self-loop dropped
        assert graph.num_attributes == 2
        assert graph.get_attributes(mapping["alice"]).tolist() == [1, 0]

    def test_load_without_attributes(self, edge_file):
        graph, _mapping = load_attributed_graph(edge_file)
        assert graph.num_attributes == 0
        assert graph.num_edges == 3

    def test_non_binary_attributes_rejected(self, edge_file, tmp_path):
        # Neither the loader nor a release spec may coerce 2 to 1.
        path = tmp_path / "attrs.txt"
        path.write_text("alice 1 0\nbob 0 2\ncarol 1 1\ndave 0 0\n")
        with pytest.raises(ValueError, match="0 or 1"):
            load_attributed_graph(edge_file, path)
        with pytest.raises(ValueError, match="0 or 1"):
            ReleaseSpec(edges=str(edge_file), attributes=str(path)).load_graph()

    def test_inconsistent_attribute_width_rejected(self, edge_file, tmp_path):
        path = tmp_path / "attrs.txt"
        path.write_text("alice 1\nbob 0 1\n")
        with pytest.raises(ValueError):
            load_attributed_graph(edge_file, path)


class TestWriters:
    def test_edge_list_round_trip(self, tmp_path, triangle_graph):
        path = tmp_path / "out.txt"
        write_edge_list(triangle_graph, path)
        graph, _mapping = load_attributed_graph(path)
        assert graph.num_edges == triangle_graph.num_edges

    def test_attribute_table_round_trip(self, tmp_path, triangle_graph):
        edge_path = tmp_path / "edges.txt"
        attr_path = tmp_path / "attrs.txt"
        write_edge_list(triangle_graph, edge_path)
        write_attribute_table(triangle_graph, attr_path)
        graph, mapping = load_attributed_graph(edge_path, attr_path)
        assert graph.num_attributes == 2
        # Node labels are stringified integers; check one attribute vector.
        assert graph.get_attributes(mapping["2"]).tolist() == [0, 1]

    def test_json_round_trip(self, tmp_path, triangle_graph):
        path = tmp_path / "graph.json"
        save_graph_json(triangle_graph, path)
        loaded = load_graph_json(path)
        assert loaded == triangle_graph

    def test_json_round_trip_no_attributes(self, tmp_path):
        graph = AttributedGraph(3, 0)
        graph.add_edge(0, 2)
        path = tmp_path / "graph.json"
        save_graph_json(graph, path)
        assert load_graph_json(path) == graph
