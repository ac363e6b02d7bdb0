"""Unit tests for the AttributedGraph data structure."""

import numpy as np
import pytest

from repro.graphs.attributed import AttributedGraph


class TestConstruction:
    def test_empty_graph_has_no_edges(self):
        graph = AttributedGraph(5, 2)
        assert graph.num_nodes == 5
        assert graph.num_edges == 0
        assert graph.num_attributes == 2

    def test_zero_nodes_allowed(self):
        graph = AttributedGraph(0, 0)
        assert graph.num_nodes == 0
        assert list(graph.edges()) == []

    def test_negative_nodes_rejected(self):
        with pytest.raises(ValueError):
            AttributedGraph(-1, 0)

    def test_negative_attributes_rejected(self):
        with pytest.raises(ValueError):
            AttributedGraph(3, -2)

    def test_attributes_initialised_to_zero(self):
        graph = AttributedGraph(3, 2)
        assert np.array_equal(graph.attributes, np.zeros((3, 2)))

    def test_len_and_contains(self):
        graph = AttributedGraph(4, 0)
        assert len(graph) == 4
        assert 0 in graph and 3 in graph
        assert 4 not in graph and -1 not in graph


class TestEdges:
    def test_add_edge_is_undirected(self):
        graph = AttributedGraph(3, 0)
        assert graph.add_edge(0, 1)
        assert graph.has_edge(1, 0)
        assert graph.num_edges == 1

    def test_duplicate_edge_not_added(self):
        graph = AttributedGraph(3, 0)
        graph.add_edge(0, 1)
        assert not graph.add_edge(1, 0)
        assert graph.num_edges == 1

    def test_self_loop_rejected(self):
        graph = AttributedGraph(3, 0)
        with pytest.raises(ValueError):
            graph.add_edge(1, 1)

    def test_out_of_range_node_rejected(self):
        graph = AttributedGraph(3, 0)
        with pytest.raises(KeyError):
            graph.add_edge(0, 3)

    def test_remove_edge(self):
        graph = AttributedGraph(3, 0)
        graph.add_edge(0, 1)
        assert graph.remove_edge(1, 0)
        assert graph.num_edges == 0
        assert not graph.remove_edge(0, 1)

    def test_has_edge_out_of_range_is_false(self):
        graph = AttributedGraph(3, 0)
        assert not graph.has_edge(0, 99)

    def test_add_edges_from_counts_insertions(self):
        graph = AttributedGraph(4, 0)
        added = graph.add_edges_from([(0, 1), (1, 2), (0, 1)])
        assert added == 2
        assert graph.num_edges == 2

    def test_edges_are_canonical_and_unique(self):
        graph = AttributedGraph(4, 0)
        graph.add_edges_from([(2, 0), (3, 1)])
        assert sorted(graph.edges()) == [(0, 2), (1, 3)]


class TestNeighbourhoods:
    def test_degree_and_neighbors(self, triangle_graph):
        assert triangle_graph.degree(2) == 3
        assert triangle_graph.neighbors(2) == frozenset({0, 1, 3})

    def test_degrees_array(self, triangle_graph):
        assert list(triangle_graph.degrees()) == [2, 2, 3, 1]

    def test_common_neighbors(self, triangle_graph):
        assert triangle_graph.common_neighbors(0, 1) == {2}
        assert triangle_graph.common_neighbors(0, 3) == {2}
        assert triangle_graph.common_neighbors(1, 3) == {2}

    def test_common_neighbors_empty(self):
        graph = AttributedGraph(4, 0)
        graph.add_edge(0, 1)
        assert graph.common_neighbors(0, 1) == set()


class TestAttributes:
    def test_set_and_get_attributes(self):
        graph = AttributedGraph(2, 3)
        graph.set_attributes(1, [1, 0, 1])
        assert list(graph.get_attributes(1)) == [1, 0, 1]

    def test_get_attributes_returns_copy(self):
        graph = AttributedGraph(2, 1)
        vector = graph.get_attributes(0)
        vector[0] = 1
        assert graph.get_attributes(0)[0] == 0

    def test_wrong_length_rejected(self):
        graph = AttributedGraph(2, 2)
        with pytest.raises(ValueError):
            graph.set_attributes(0, [1])

    def test_non_binary_rejected(self):
        graph = AttributedGraph(2, 1)
        with pytest.raises(ValueError):
            graph.set_attributes(0, [2])

    def test_set_all_attributes(self):
        graph = AttributedGraph(3, 2)
        matrix = np.array([[1, 0], [0, 1], [1, 1]])
        graph.set_all_attributes(matrix)
        assert np.array_equal(graph.attributes, matrix)

    def test_set_all_attributes_shape_check(self):
        graph = AttributedGraph(3, 2)
        with pytest.raises(ValueError):
            graph.set_all_attributes(np.zeros((2, 2)))


class TestDerivedGraphs:
    def test_copy_is_independent(self, triangle_graph):
        clone = triangle_graph.copy()
        clone.remove_edge(0, 1)
        clone.set_attributes(0, [0, 0])
        assert triangle_graph.has_edge(0, 1)
        assert triangle_graph.get_attributes(0)[0] == 1

    def test_copy_equequality(self, triangle_graph):
        assert triangle_graph.copy() == triangle_graph

    def test_from_graph_structure_zeroes_attributes(self, triangle_graph):
        clone = AttributedGraph.from_graph_structure(
            triangle_graph, triangle_graph.num_attributes
        )
        assert clone.num_edges == triangle_graph.num_edges
        assert clone.num_attributes == triangle_graph.num_attributes
        assert not clone.attributes.any()

    def test_induced_subgraph(self, triangle_graph):
        sub = triangle_graph.induced_subgraph([0, 1, 2])
        assert sub.num_nodes == 3
        assert sub.num_edges == 3
        assert np.array_equal(sub.attributes, triangle_graph.attributes[:3])

    def test_induced_subgraph_rejects_repeated_nodes(self):
        graph = AttributedGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ValueError, match="node 1 appears more than once"):
            graph.induced_subgraph([1, 2, 1])
        with pytest.raises(ValueError, match="node 3 appears more than once"):
            graph.induced_subgraph([3, 0, 3, 3])

    def test_induced_subgraph_relabels(self, triangle_graph):
        sub = triangle_graph.induced_subgraph([2, 3])
        assert sub.num_nodes == 2
        assert sub.has_edge(0, 1)

    def test_relabelled_requires_permutation(self, triangle_graph):
        with pytest.raises(ValueError):
            triangle_graph.relabelled([0, 1, 2])

    def test_unhashable(self, triangle_graph):
        with pytest.raises(TypeError):
            hash(triangle_graph)


class TestConversion:
    def test_networkx_round_trip(self, triangle_graph):
        nx_graph = triangle_graph.to_networkx()
        back = AttributedGraph.from_networkx(
            nx_graph, attribute_keys=["attr_0", "attr_1"]
        )
        assert back == triangle_graph

    def test_from_networkx_drops_self_loops(self):
        import networkx as nx

        nx_graph = nx.Graph()
        nx_graph.add_edges_from([(0, 0), (0, 1)])
        graph = AttributedGraph.from_networkx(nx_graph)
        assert graph.num_edges == 1

    def test_from_edges_with_attributes(self):
        attributes = np.array([[1, 0], [0, 1], [1, 1]])
        graph = AttributedGraph.from_edges(3, [(0, 1), (1, 2)], attributes)
        assert graph.num_edges == 2
        assert np.array_equal(graph.attributes, attributes)

    def test_from_edges_without_attributes(self):
        graph = AttributedGraph.from_edges(3, [(0, 2)])
        assert graph.num_attributes == 0
        assert graph.has_edge(0, 2)

    def test_from_edges_rejects_non_matrix_attributes(self):
        with pytest.raises(ValueError, match="2-D"):
            AttributedGraph.from_edges(3, [(0, 1)],
                                       attributes=np.array([1, 0, 1]))
        with pytest.raises(ValueError, match="2-D"):
            AttributedGraph.from_edges(3, [(0, 1)], attributes=np.ones((3, 1, 1)))
        with pytest.raises(ValueError, match="shape"):
            AttributedGraph.from_edges(3, [(0, 1)], attributes=np.ones((2, 1)))

    def test_from_edges_keeps_an_empty_attribute_matrix(self):
        graph = AttributedGraph.from_edges(3, [(0, 1)],
                                           attributes=np.zeros((3, 0)))
        assert graph.num_attributes == 0
