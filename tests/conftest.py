"""Shared fixtures for the test suite.

Fixtures provide small, deterministic graphs so the whole suite runs in
seconds; session scope is used for the more expensive generated graphs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.synthetic import attributed_social_graph
from repro.graphs import statistics
from repro.graphs.attributed import AttributedGraph


@pytest.fixture
def triangle_graph() -> AttributedGraph:
    """A 4-node graph with exactly one triangle (0-1-2) plus a pendant node 3."""
    graph = AttributedGraph(4, 2)
    graph.add_edges_from([(0, 1), (1, 2), (0, 2), (2, 3)])
    graph.set_all_attributes(np.array([[1, 0], [1, 0], [0, 1], [0, 0]]))
    return graph


@pytest.fixture
def star_graph() -> AttributedGraph:
    """A hub node 0 connected to nodes 1..5; no triangles."""
    graph = AttributedGraph(6, 1)
    graph.add_edges_from([(0, i) for i in range(1, 6)])
    attributes = np.zeros((6, 1), dtype=np.uint8)
    attributes[0, 0] = 1
    graph.set_all_attributes(attributes)
    return graph


@pytest.fixture
def empty_graph() -> AttributedGraph:
    """Five isolated nodes with two (all-zero) attributes."""
    return AttributedGraph(5, 2)


@pytest.fixture(scope="session")
def small_social_graph() -> AttributedGraph:
    """A small but realistic attributed social graph (≈150 nodes)."""
    return attributed_social_graph(
        num_nodes=150,
        average_degree=8.0,
        max_degree=25,
        num_triangles=400,
        attribute_marginals=(0.4, 0.3),
        homophily=0.6,
        rng=42,
    )


@pytest.fixture(scope="session")
def medium_social_graph() -> AttributedGraph:
    """A slightly larger attributed social graph (≈400 nodes) for integration tests."""
    return attributed_social_graph(
        num_nodes=400,
        average_degree=10.0,
        max_degree=40,
        num_triangles=1500,
        attribute_marginals=(0.45, 0.25),
        homophily=0.7,
        rng=7,
    )


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for test bodies."""
    return np.random.default_rng(12345)


@pytest.fixture
def scan_log(monkeypatch) -> list:
    """Every triangle and common-neighbour scan run, as ``(kind, graph)``.

    ``kind`` is ``"totals"`` or ``"per-node"`` for the triangle scan and
    ``"max-cn"`` for the common-neighbour maximum.
    """
    log = []
    triangle_scan = statistics._triangle_scan
    max_cn_scan = statistics._max_common_neighbours_scan

    def counted_triangle_scan(graph, per_node):
        log.append(("per-node" if per_node else "totals", graph))
        return triangle_scan(graph, per_node)

    def counted_max_cn_scan(graph):
        log.append(("max-cn", graph))
        return max_cn_scan(graph)

    monkeypatch.setattr(statistics, "_triangle_scan", counted_triangle_scan)
    monkeypatch.setattr(statistics, "_max_common_neighbours_scan",
                        counted_max_cn_scan)
    return log
