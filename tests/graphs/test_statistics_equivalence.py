"""Property-based equivalence: vectorized CSR kernels vs. reference loops.

Every statistic rewritten over the CSR view must agree *exactly* with the
original pure-Python implementation on arbitrary graphs — these tests are
the contract that lets the benchmark harness claim the speedups are free.
"""

import numpy as np
import pytest

import repro.graphs.statistics as stats
from repro.graphs.attributed import AttributedGraph
from repro.graphs.statistics import (
    degree_ccdf,
    local_clustering_coefficients,
    max_common_neighbours,
    triangle_count,
    triangles_per_node,
)
from repro.testing.reference import (
    degree_ccdf_reference,
    local_clustering_coefficients_reference,
    max_common_neighbours_reference,
    triangle_count_reference,
    triangles_per_node_reference,
)


def gnp_graph(n: int, p: float, seed: int) -> AttributedGraph:
    rng = np.random.default_rng(seed)
    graph = AttributedGraph(n, 0)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                graph.add_edge(u, v)
    return graph


def powerlaw_graph(n: int, seed: int) -> AttributedGraph:
    """A skewed-degree graph (hubs stress the pair-enumeration chunking)."""
    rng = np.random.default_rng(seed)
    weights = (rng.pareto(1.5, size=n) + 1.0)
    pi = weights / weights.sum()
    graph = AttributedGraph(n, 0)
    for _ in range(4 * n):
        u, v = rng.choice(n, size=2, p=pi)
        if u != v:
            graph.add_edge(int(u), int(v))
    return graph


CASES = [
    gnp_graph(1, 0.0, seed=0),
    gnp_graph(2, 1.0, seed=0),
    gnp_graph(25, 0.05, seed=1),
    gnp_graph(40, 0.15, seed=2),
    gnp_graph(60, 0.3, seed=3),
    gnp_graph(35, 0.6, seed=4),
    powerlaw_graph(80, seed=5),
    powerlaw_graph(120, seed=6),
]


@pytest.mark.parametrize("graph", CASES, ids=range(len(CASES)))
class TestEquivalence:
    def test_triangle_count(self, graph):
        assert triangle_count(graph) == triangle_count_reference(graph)

    def test_triangles_per_node(self, graph):
        assert np.array_equal(
            triangles_per_node(graph), triangles_per_node_reference(graph)
        )

    def test_local_clustering(self, graph):
        np.testing.assert_allclose(
            local_clustering_coefficients(graph),
            local_clustering_coefficients_reference(graph),
        )

    def test_max_common_neighbours(self, graph):
        assert max_common_neighbours(graph) == \
            max_common_neighbours_reference(graph)

    def test_degree_ccdf(self, graph):
        assert degree_ccdf(graph) == degree_ccdf_reference(graph)


class TestFallbackPaths:
    """The sparse (hashed key table) membership path must agree too."""

    @pytest.fixture
    def sparse_mode(self, monkeypatch):
        from repro.utils import membership

        # A zero byte ratio forces membership_probe onto the hashed table.
        monkeypatch.setattr(membership, "BITMAP_TABLE_RATIO", 0)
        probe = membership.membership_probe(np.array([1, 2]))
        assert isinstance(probe.__self__, membership.HashedKeyTable)

    def test_triangles_sparse_membership(self, sparse_mode):
        for seed in range(5):
            graph = gnp_graph(45, 0.2, seed=seed)
            assert triangle_count(graph) == triangle_count_reference(graph)
            assert np.array_equal(
                triangles_per_node(graph), triangles_per_node_reference(graph)
            )

    def test_chunked_pair_enumeration(self, monkeypatch):
        # Force many tiny chunks so the chunk-aggregation logic is exercised.
        monkeypatch.setattr(stats, "_MAX_PAIRS_PER_CHUNK", 8)
        graph = powerlaw_graph(60, seed=9)
        assert triangle_count(graph) == triangle_count_reference(graph)
        assert np.array_equal(
            triangles_per_node(graph), triangles_per_node_reference(graph)
        )
        assert max_common_neighbours(graph) == \
            max_common_neighbours_reference(graph)


class TestStatisticsAfterMutation:
    """CSR-backed statistics must track mutations (cache invalidation)."""

    def test_triangle_count_tracks_edits(self):
        graph = gnp_graph(30, 0.2, seed=11)
        assert triangle_count(graph) == triangle_count_reference(graph)
        rng = np.random.default_rng(0)
        for _ in range(10):
            u, v = rng.integers(0, 30, size=2)
            if u == v:
                continue
            if graph.has_edge(int(u), int(v)):
                graph.remove_edge(int(u), int(v))
            else:
                graph.add_edge(int(u), int(v))
            assert triangle_count(graph) == triangle_count_reference(graph)
