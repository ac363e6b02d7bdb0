"""Θ_F's truncate-then-count, checked on neighbouring graphs.

EdgeTruncation (Algorithm 4, ``learn_correlations_dp``) adds ``Lap(2k/ε)``
noise to the configuration counts of µ(G, k).  It is ε-DP only if those
counts move by at most ``2k`` in L1 between neighbouring graphs
(Proposition 1).  These tests toggle every node pair and change every
node's attribute vector of small graphs, and run the production counting
path, ``truncated_connection_counts``, before any noise.  The truncation
module derives the bounds checked here: 3 for an edge toggle and ``2k``
for an attribute change, both within ``2k`` for ``k >= 2``.  Both are
attained.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.attributed import AttributedGraph
from repro.params.correlations import truncated_connection_counts

graph_specs = st.integers(min_value=2, max_value=9).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=3 * n,
        ),
        st.integers(1, 2).flatmap(lambda w: st.lists(
            st.lists(st.integers(0, 1), min_size=w, max_size=w),
            min_size=n, max_size=n,
        )),
        st.integers(1, 5),
    )
)


def _build(num_nodes, edges, attributes):
    graph = AttributedGraph(num_nodes, len(attributes[0]))
    for u, v in edges:
        if u != v:
            graph.add_edge(u, v)
    graph.set_all_attributes(np.array(attributes, dtype=np.uint8))
    return graph


def _toggle(graph, u, v):
    if graph.has_edge(u, v):
        graph.remove_edge(u, v)
    else:
        graph.add_edge(u, v)


def _l1(graph, k, base):
    return int(np.abs(truncated_connection_counts(graph, k) - base).sum())


@settings(max_examples=120, deadline=None)
@given(graph_specs)
def test_edge_toggles_move_counts_by_at_most_three(spec):
    num_nodes, edges, attributes, k = spec
    graph = _build(num_nodes, edges, attributes)
    base = truncated_connection_counts(graph, k)
    for u, v in itertools.combinations(range(num_nodes), 2):
        _toggle(graph, u, v)
        change = _l1(graph, k, base)
        _toggle(graph, u, v)
        assert change <= 3


@settings(max_examples=120, deadline=None)
@given(graph_specs)
def test_attribute_changes_move_counts_by_at_most_2k(spec):
    num_nodes, edges, attributes, k = spec
    graph = _build(num_nodes, edges, attributes)
    base = truncated_connection_counts(graph, k)
    width = graph.num_attributes
    for node in range(num_nodes):
        original = graph.get_attributes(node).copy()
        for vector in itertools.product((0, 1), repeat=width):
            graph.set_attributes(node, vector)
            assert _l1(graph, k, base) <= 2 * k
        graph.set_attributes(node, original)


def test_edge_toggle_bound_is_attained():
    # k = 2.  Adding (4, 5) pushes 2 out of 4's top-2 and 0 out of 5's, and
    # the new edge's configuration differs from both lost edges'.
    graph = _build(6, [(2, 4), (3, 4), (0, 5), (1, 5)],
                   [[0], [0], [0], [0], [1], [1]])
    base = truncated_connection_counts(graph, 2)
    graph.add_edge(4, 5)
    assert _l1(graph, 2, base) == 3


def test_attribute_bound_is_attained():
    # A hub above the bound keeps k edges; recolouring it re-encodes all k.
    k = 3
    graph = _build(7, [(0, leaf) for leaf in range(1, 7)], [[0]] * 7)
    base = truncated_connection_counts(graph, k)
    graph.set_attributes(0, [1])
    assert _l1(graph, k, base) == 2 * k
