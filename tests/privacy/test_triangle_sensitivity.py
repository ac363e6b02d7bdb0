"""The triangle count's local sensitivity, checked on neighbouring graphs.

The Ladder release (``repro.privacy.ladder``) is ε-DP only if its rung
lengths bound how far the triangle count moves between edge-adjacent
graphs.  Rung 1 is ``LS(G) = max_common_neighbours(G)`` and rung ``t + 1``
is ``LS(G) + t``.  These tests toggle every node pair of small graphs and
compare the declared values with the observed changes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.attributed import AttributedGraph
from repro.graphs.statistics import max_common_neighbours, triangle_count
from repro.privacy.ladder import (
    local_sensitivity_at_distance,
    triangle_local_sensitivity,
)

graph_specs = st.integers(min_value=2, max_value=9).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=3 * n,
        ),
    )
)


def _build(num_nodes, edges):
    graph = AttributedGraph(num_nodes, 0)
    for u, v in edges:
        if u != v:
            graph.add_edge(u, v)
    return graph


def _toggle(graph, u, v):
    if graph.has_edge(u, v):
        graph.remove_edge(u, v)
    else:
        graph.add_edge(u, v)


def _neighbour_changes(graph):
    """``(|Δ triangle_count|, LS(G'))`` for every single-pair toggle ``G'``."""
    base = triangle_count(graph)
    n = graph.num_nodes
    changes = []
    for u in range(n):
        for v in range(u + 1, n):
            _toggle(graph, u, v)
            changes.append((abs(triangle_count(graph) - base),
                            max_common_neighbours(graph)))
            _toggle(graph, u, v)
    return changes


@settings(max_examples=120, deadline=None)
@given(graph_specs)
def test_declared_sensitivity_matches_neighbouring_graphs(spec):
    graph = _build(*spec)
    declared = max_common_neighbours(graph)
    changes = _neighbour_changes(graph)
    largest = max(delta for delta, _ in changes)
    assert declared == largest
    # The ladder's LS is the scan, floored at 1 and capped at n - 2.
    assert triangle_local_sensitivity(graph) >= largest
    # One toggle moves any pair's common-neighbour count by at most one,
    # which is what makes LS(G) + t a valid rung at distance t.
    assert all(abs(neighbour_ls - declared) <= 1
               for _, neighbour_ls in changes)
    assert local_sensitivity_at_distance(graph, 1) >= max(
        neighbour_ls for _, neighbour_ls in changes
    )
