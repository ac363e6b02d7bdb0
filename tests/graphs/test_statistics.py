"""Unit tests for exact graph statistics."""

import numpy as np
import pytest

import repro.graphs.statistics as stats
from repro.graphs.attributed import AttributedGraph
from repro.graphs.statistics import (
    average_local_clustering,
    batched_common_neighbours,
    clustering_ccdf,
    degree_ccdf,
    degree_sequence,
    global_clustering_coefficient,
    local_clustering_coefficients,
    max_common_neighbours,
    summary,
    triangle_count,
    triangles_per_node,
    wedge_count,
)


def complete_graph(n: int) -> AttributedGraph:
    graph = AttributedGraph(n, 0)
    for u in range(n):
        for v in range(u + 1, n):
            graph.add_edge(u, v)
    return graph


class TestDegreeStatistics:
    def test_degree_sequence(self, triangle_graph):
        assert list(degree_sequence(triangle_graph)) == [2, 2, 3, 1]

    def test_degree_sequence_sorted(self, triangle_graph):
        assert list(degree_sequence(triangle_graph, sort=True)) == [1, 2, 2, 3]

    def test_degree_ccdf_is_decreasing(self, small_social_graph):
        points = degree_ccdf(small_social_graph)
        fractions = [fraction for _degree, fraction in points]
        assert all(a >= b for a, b in zip(fractions, fractions[1:]))
        assert fractions[-1] == 0.0


class TestTriangles:
    def test_triangle_count_single_triangle(self, triangle_graph):
        assert triangle_count(triangle_graph) == 1

    def test_triangle_count_star_is_zero(self, star_graph):
        assert triangle_count(star_graph) == 0

    def test_triangle_count_complete_graph(self):
        assert triangle_count(complete_graph(5)) == 10  # C(5, 3)

    def test_triangles_per_node(self, triangle_graph):
        assert list(triangles_per_node(triangle_graph)) == [1, 1, 1, 0]

    def test_triangle_count_matches_networkx(self, small_social_graph):
        import networkx as nx

        nx_graph = small_social_graph.to_networkx()
        expected = sum(nx.triangles(nx_graph).values()) // 3
        assert triangle_count(small_social_graph) == expected

    def test_max_common_neighbours_triangle(self, triangle_graph):
        assert max_common_neighbours(triangle_graph) == 1

    def test_max_common_neighbours_complete(self):
        assert max_common_neighbours(complete_graph(5)) == 3

    def test_max_common_neighbours_star(self, star_graph):
        # Leaves share exactly the hub.
        assert max_common_neighbours(star_graph) == 1


class TestClustering:
    def test_wedge_count_star(self, star_graph):
        assert wedge_count(star_graph) == 10  # C(5, 2) centred at the hub

    def test_global_clustering_triangle_graph(self, triangle_graph):
        # 1 triangle, wedges: node0:1, node1:1, node2:3 -> 5 wedges.
        assert global_clustering_coefficient(triangle_graph) == pytest.approx(3 / 5)

    def test_global_clustering_complete(self):
        assert global_clustering_coefficient(complete_graph(6)) == pytest.approx(1.0)

    def test_local_clustering_values(self, triangle_graph):
        coefficients = local_clustering_coefficients(triangle_graph)
        assert coefficients[0] == pytest.approx(1.0)
        assert coefficients[2] == pytest.approx(1 / 3)
        assert coefficients[3] == 0.0

    def test_average_local_clustering_matches_networkx(self, small_social_graph):
        import networkx as nx

        expected = nx.average_clustering(small_social_graph.to_networkx())
        assert average_local_clustering(small_social_graph) == pytest.approx(expected)

    def test_clustering_ccdf_bounds(self, small_social_graph):
        points = clustering_ccdf(small_social_graph, num_points=11)
        assert len(points) == 11
        assert all(0.0 <= fraction <= 1.0 for _t, fraction in points)
        assert points[-1][1] == 0.0  # nothing exceeds 1.0

    def test_empty_graph_statistics(self, empty_graph):
        assert triangle_count(empty_graph) == 0
        assert wedge_count(empty_graph) == 0
        assert global_clustering_coefficient(empty_graph) == 0.0
        assert average_local_clustering(empty_graph) == 0.0


class TestSummary:
    def test_summary_fields(self, triangle_graph):
        stats = summary(triangle_graph)
        assert stats.num_nodes == 4
        assert stats.num_edges == 4
        assert stats.max_degree == 3
        assert stats.average_degree == pytest.approx(2.0)
        assert stats.num_triangles == 1

    def test_summary_as_dict_keys(self, triangle_graph):
        data = summary(triangle_graph).as_dict()
        assert set(data) == {
            "n", "m", "d_max", "d_avg", "n_triangles",
            "avg_clustering", "global_clustering",
        }


def _csr_with_keys(graph):
    """CSR arrays plus the globally sorted directed-key array the batched
    common-neighbour kernel probes (``owner * n + neighbour``)."""
    indptr, indices = graph.csr()
    n = graph.num_nodes
    keys = np.repeat(
        np.arange(n, dtype=np.int64), np.diff(indptr)
    ) * n + indices
    return indptr, indices, keys


def _random_pair_workload(seed=7, n=32, num_pairs=200):
    rng = np.random.default_rng(seed)
    graph = AttributedGraph(n, 0)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.18:
                graph.add_edge(u, v)
    # Deliberately include duplicates and non-adjacent pairs.
    us = rng.integers(0, n, size=num_pairs).astype(np.int64)
    vs = rng.integers(0, n, size=num_pairs).astype(np.int64)
    keep = us != vs
    return graph, us[keep], vs[keep]


def _naive_common_neighbours(graph, us, vs):
    adjacency = {u: set(graph.neighbors(u)) for u in range(graph.num_nodes)}
    return np.array(
        [len(adjacency[int(u)] & adjacency[int(v)]) for u, v in zip(us, vs)],
        dtype=np.int64,
    )


class TestBatchedCommonNeighbours:
    def test_counts_match_naive_reference(self):
        graph, us, vs = _random_pair_workload()
        indptr, indices, keys = _csr_with_keys(graph)
        counts = batched_common_neighbours(
            graph.num_nodes, indptr, indices, keys, us, vs
        )
        assert np.array_equal(counts, _naive_common_neighbours(graph, us, vs))

    def test_small_probe_budget_chunks_identically(self, monkeypatch):
        graph, us, vs = _random_pair_workload(seed=5)
        indptr, indices, keys = _csr_with_keys(graph)
        full = batched_common_neighbours(
            graph.num_nodes, indptr, indices, keys, us, vs
        )
        monkeypatch.setattr(stats, "_MAX_PAIRS_PER_CHUNK", 7)
        chunked = batched_common_neighbours(
            graph.num_nodes, indptr, indices, keys, us, vs
        )
        assert np.array_equal(full, chunked)

    def test_empty_pairs_and_edgeless_graph(self):
        graph, us, vs = _random_pair_workload(seed=1)
        indptr, indices, keys = _csr_with_keys(graph)
        none = np.empty(0, dtype=np.int64)
        counts = batched_common_neighbours(
            graph.num_nodes, indptr, indices, keys, none, none,
        )
        assert counts.size == 0
        bare = AttributedGraph(6, 0)
        indptr, indices, keys = _csr_with_keys(bare)
        counts = batched_common_neighbours(
            6, indptr, indices, keys,
            np.array([0, 2], dtype=np.int64),
            np.array([1, 3], dtype=np.int64),
        )
        assert not counts.any()
