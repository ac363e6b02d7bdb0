"""The closed-form truncation µ(G, k) against Definition 2's per-edge scan.

``repro.graphs.truncation`` keeps an edge iff each endpoint ranks the other
among its ``k`` highest-id neighbours.  The oracle
``truncate_edges_reference`` runs the scan the paper defines.  These tests
pin the surviving edges, the truncated graph and the Θ_F counts that
``learn_correlations_dp`` noises to the oracle, on random graphs with
isolated nodes, stars and cliques, and at the storage dtype rungs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.attributed import AttributedGraph
from repro.graphs.truncation import truncate_edges, truncated_edge_arrays
from repro.params.correlations import (
    connection_counts,
    truncated_connection_counts,
)
from repro.testing.reference import (
    canonical_edge_order,
    truncate_edges_reference,
)


@st.composite
def graphs(draw, max_nodes=24):
    """Random edges plus one star and one clique, on two attributes."""
    n = draw(st.integers(1, max_nodes))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    hub = draw(node)
    edges += [(hub, leaf) for leaf in draw(st.lists(node, max_size=n))]
    clique = draw(st.lists(node, max_size=8, unique=True))
    edges += [(a, b) for i, a in enumerate(clique) for b in clique[i + 1:]]
    graph = AttributedGraph(n, 2)
    for u, v in edges:
        if u != v:
            graph.add_edge(u, v)
    codes = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    graph.set_all_attributes(
        np.array([[code >> 1, code & 1] for code in codes], dtype=np.uint8)
    )
    return graph


def _bounds(graph):
    """Every k from 1 to one above the maximum degree."""
    top = int(graph.degrees().max()) if graph.num_nodes else 0
    return range(1, top + 2)


def _assert_matches_scan(graph, k):
    expected = truncate_edges_reference(graph, k)
    us, vs = truncated_edge_arrays(graph, k)
    assert list(zip(us.tolist(), vs.tolist())) == expected.edge_list()
    truncated = truncate_edges(graph, k)
    assert truncated == expected
    assert np.array_equal(truncated.attributes, expected.attributes)
    assert np.array_equal(truncated_connection_counts(graph, k),
                          connection_counts(expected))


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_closed_form_matches_the_scan(graph):
    for k in _bounds(graph):
        _assert_matches_scan(graph, k)


@settings(max_examples=60, deadline=None)
@given(graphs(max_nodes=12))
def test_scan_fast_path_matches_the_mutation_loop(graph):
    for k in _bounds(graph):
        assert truncate_edges_reference(graph, k) == truncate_edges_reference(
            graph, k, order=canonical_edge_order(graph)
        )


def _rung_graph(num_nodes, hubs, extra, seed):
    """Hubs joined to the highest ids and to random nodes, plus random edges."""
    rng = np.random.default_rng(seed)
    graph = AttributedGraph(num_nodes, 1)
    for hub, degree in hubs:
        degree = min(degree, num_nodes - 1)
        ids = np.concatenate((
            np.arange(num_nodes - degree // 2, num_nodes),
            rng.choice(num_nodes, size=degree, replace=False),
        ))
        for leaf in ids.tolist():
            if leaf != hub:
                graph.add_edge(hub, leaf)
    for u, v in rng.integers(num_nodes, size=(extra, 2)).tolist():
        if u != v:
            graph.add_edge(u, v)
    graph.set_all_attributes(
        rng.integers(0, 2, size=(num_nodes, 1)).astype(np.uint8)
    )
    return graph


@pytest.mark.parametrize("num_nodes", [255, 256, 65535, 65536])
@pytest.mark.parametrize("k", [256, 300])
def test_dtype_rungs(num_nodes, k):
    # Few edges keep indptr at uint8, where `indptr - 300` cannot be formed.
    sparse = _rung_graph(num_nodes, [], extra=60, seed=num_nodes)
    assert sparse.csr()[0].dtype == np.uint8
    _assert_matches_scan(sparse, k)
    dense = _rung_graph(num_nodes, [(0, 420), (1, 420), (7, 260)],
                        extra=600, seed=k)
    _assert_matches_scan(dense, k)


class TestReferenceScan:
    def test_respects_explicit_order(self):
        # Path 0-1-2-3 with k=1: degrees are evaluated against the partially
        # truncated graph, so the processing order decides which edge survives.
        graph = AttributedGraph(4, 0)
        graph.add_edges_from([(0, 1), (1, 2), (2, 3)])
        forward = truncate_edges_reference(
            graph, 1, order=[(0, 1), (1, 2), (2, 3)]
        )
        assert sorted(forward.edges()) == [(2, 3)]
        backward = truncate_edges_reference(
            graph, 1, order=[(2, 3), (1, 2), (0, 1)]
        )
        assert sorted(backward.edges()) == [(0, 1)]

    def test_canonical_order_is_sorted(self, triangle_graph):
        order = canonical_edge_order(triangle_graph)
        assert order == sorted(order)

    def test_invalid_k_rejected(self, triangle_graph):
        with pytest.raises(ValueError):
            truncate_edges_reference(triangle_graph, 0)
        with pytest.raises(ValueError):
            truncated_edge_arrays(triangle_graph, 0)
