"""Unit tests for the edge truncation operator (Definition 2)."""

import numpy as np
import pytest

from repro.graphs.attributed import AttributedGraph
from repro.graphs.truncation import default_truncation_parameter, truncate_edges


def star(n_leaves: int) -> AttributedGraph:
    graph = AttributedGraph(n_leaves + 1, 0)
    for leaf in range(1, n_leaves + 1):
        graph.add_edge(0, leaf)
    return graph


class TestTruncation:
    def test_no_truncation_when_degrees_within_bound(self, triangle_graph):
        truncated = truncate_edges(triangle_graph, k=3)
        assert truncated == triangle_graph

    def test_hub_is_truncated(self):
        graph = star(10)
        truncated = truncate_edges(graph, k=4)
        assert truncated.degree(0) <= 4
        assert truncated.num_edges <= 4

    def test_max_degree_bounded_after_truncation(self, small_social_graph):
        for k in (2, 5, 10):
            truncated = truncate_edges(small_social_graph, k)
            assert int(truncated.degrees().max()) <= k

    def test_original_graph_unchanged(self, small_social_graph):
        before = small_social_graph.num_edges
        truncate_edges(small_social_graph, 3)
        assert small_social_graph.num_edges == before

    def test_attributes_preserved(self, triangle_graph):
        truncated = truncate_edges(triangle_graph, k=1)
        assert np.array_equal(truncated.attributes, triangle_graph.attributes)

    def test_invalid_k_rejected(self, triangle_graph):
        with pytest.raises(ValueError):
            truncate_edges(triangle_graph, 0)

    def test_truncation_is_deterministic(self, small_social_graph):
        first = truncate_edges(small_social_graph, 5)
        second = truncate_edges(small_social_graph, 5)
        assert first == second

    def test_large_k_is_identity(self, small_social_graph):
        k = int(small_social_graph.degrees().max())
        truncated = truncate_edges(small_social_graph, k)
        assert truncated == small_social_graph


class TestDefaultTruncationParameter:
    def test_cube_root_heuristic(self):
        assert default_truncation_parameter(1000) == 10
        assert default_truncation_parameter(27_000) == 30

    def test_minimum_of_two(self):
        assert default_truncation_parameter(1) == 2
        assert default_truncation_parameter(8) == 2

    def test_invalid_input(self):
        with pytest.raises(ValueError):
            default_truncation_parameter(0)


class TestNeighbouringGraphBound:
    """Empirical check of Proposition 1: the truncated outputs of neighbouring
    graphs differ by a bounded number of edges / configuration counts."""

    def test_edge_addition_changes_at_most_three_edges(self, small_social_graph):
        from repro.params.correlations import connection_counts

        k = 5
        graph = small_social_graph
        # Find a non-edge to add.
        non_edge = None
        for u in range(graph.num_nodes):
            for v in range(u + 1, graph.num_nodes):
                if not graph.has_edge(u, v):
                    non_edge = (u, v)
                    break
            if non_edge:
                break
        neighbour = graph.copy()
        neighbour.add_edge(*non_edge)

        counts_a = connection_counts(truncate_edges(graph, k))
        counts_b = connection_counts(truncate_edges(neighbour, k))
        assert np.abs(counts_a - counts_b).sum() <= 3

    def test_attribute_change_bounded_by_2k(self, small_social_graph):
        from repro.params.correlations import connection_counts

        k = 5
        graph = small_social_graph
        neighbour = graph.copy()
        node = int(np.argmax(graph.degrees()))
        flipped = 1 - graph.get_attributes(node)
        neighbour.set_attributes(node, flipped)

        counts_a = connection_counts(truncate_edges(graph, k))
        counts_b = connection_counts(truncate_edges(neighbour, k))
        assert np.abs(counts_a - counts_b).sum() <= 2 * k
