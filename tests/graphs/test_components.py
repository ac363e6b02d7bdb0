"""Unit tests for connected-component utilities."""

import numpy as np

from repro.graphs.attributed import AttributedGraph
from repro.graphs.components import (
    BudgetedReachability,
    component_labels,
    connected_components,
    is_connected,
    largest_connected_component,
)


def two_component_graph() -> AttributedGraph:
    graph = AttributedGraph(7, 1)
    graph.add_edges_from([(0, 1), (1, 2), (2, 0), (0, 3)])  # main component
    graph.add_edge(4, 5)  # small component; node 6 isolated
    graph.set_attributes(4, [1])
    return graph


class TestConnectedComponents:
    def test_component_count(self):
        components = connected_components(two_component_graph())
        assert len(components) == 3

    def test_components_sorted_by_size(self):
        components = connected_components(two_component_graph())
        assert [len(c) for c in components] == [4, 2, 1]

    def test_single_component(self, triangle_graph):
        assert len(connected_components(triangle_graph)) == 1

    def test_empty_graph(self):
        assert connected_components(AttributedGraph(0, 0)) == []

    def test_isolated_nodes_are_singletons(self, empty_graph):
        components = connected_components(empty_graph)
        assert len(components) == 5
        assert all(len(c) == 1 for c in components)


class TestLargestComponent:
    def test_extraction_and_relabelling(self):
        main = largest_connected_component(two_component_graph())
        assert main.num_nodes == 4
        assert main.num_edges == 4

    def test_attributes_carried_over(self):
        graph = two_component_graph()
        graph.set_attributes(3, [1])
        main = largest_connected_component(graph)
        assert main.attributes.sum() == 1

    def test_connected_graph_unchanged_structurally(self, triangle_graph):
        main = largest_connected_component(triangle_graph)
        assert main == triangle_graph

    def test_empty_graph(self):
        graph = AttributedGraph(0, 0)
        assert largest_connected_component(graph).num_nodes == 0

    def test_size_tie_keeps_the_component_with_the_smallest_node(self):
        graph = AttributedGraph(8, 1)
        graph.add_edges_from([(3, 4), (4, 5), (5, 3)])
        graph.add_edges_from([(2, 6), (6, 7), (7, 2)])  # holds node 2 < 3
        graph.set_attributes(6, [1])
        main = largest_connected_component(graph)
        assert main.num_nodes == 3
        assert main.attributes[:, 0].tolist() == [0, 1, 0]  # nodes 2, 6, 7


def test_largest_component_and_connectivity_skip_the_set_view(monkeypatch):
    import repro.graphs.components as components

    def forbidden(graph):
        raise AssertionError("connected_components builds one set per "
                             "component")

    monkeypatch.setattr(components, "connected_components", forbidden)
    graph = two_component_graph()
    assert largest_connected_component(graph).num_nodes == 4
    assert not is_connected(graph)


class TestIsConnected:
    def test_connected(self, triangle_graph):
        assert is_connected(triangle_graph)

    def test_disconnected(self):
        assert not is_connected(two_component_graph())

    def test_trivial_graphs(self):
        assert is_connected(AttributedGraph(0, 0))
        assert is_connected(AttributedGraph(1, 0))


class TestComponentLabels:
    def test_matches_connected_components(self):
        graph = two_component_graph()
        labels, count = component_labels(graph)
        assert count == 3
        groups = {}
        for node, label in enumerate(labels.tolist()):
            groups.setdefault(label, set()).add(node)
        assert sorted(groups.values(), key=lambda c: (-len(c), min(c))) \
            == connected_components(graph)

    def test_labels_ordered_by_smallest_node(self):
        graph = two_component_graph()
        labels, _count = component_labels(graph)
        # BFS seeds nodes in id order, so component labels are assigned in
        # increasing order of each component's smallest member.
        assert labels[0] == 0
        assert labels[4] == 1
        assert labels[6] == 2

    def test_empty_graph(self):
        labels, count = component_labels(AttributedGraph(0, 0))
        assert labels.size == 0
        assert count == 0


class TestBudgetedReachability:
    def _path_graph(self, length: int) -> AttributedGraph:
        graph = AttributedGraph(length, 0)
        graph.add_edges_from((i, i + 1) for i in range(length - 1))
        return graph

    def test_reachable_within_budget(self):
        graph = self._path_graph(6)
        indptr, indices = graph.csr()
        probe = BudgetedReachability(graph.num_nodes)
        assert probe.reachable(indptr, indices, 0, 5)
        assert probe.reachable(indptr, indices, 5, 0)

    def test_unreachable_in_other_component(self):
        graph = two_component_graph()
        indptr, indices = graph.csr()
        probe = BudgetedReachability(graph.num_nodes)
        assert not probe.reachable(indptr, indices, 0, 4)
        # Reusable stamp array: a second query is unaffected by the first.
        assert probe.reachable(indptr, indices, 0, 3)

    def test_budget_exhaustion_returns_false(self):
        graph = self._path_graph(200)
        indptr, indices = graph.csr()
        probe = BudgetedReachability(graph.num_nodes)
        assert not probe.reachable(indptr, indices, 0, 199, edge_budget=16)
        assert probe.reachable(indptr, indices, 0, 199, edge_budget=4096)

    def test_removed_overlay_disconnects(self):
        graph = self._path_graph(5)
        n = graph.num_nodes
        indptr, indices = graph.csr()
        probe = BudgetedReachability(n)
        # Deleting the middle edge {2, 3} (both orientations) cuts the path.
        removed = np.sort(np.array([2 * n + 3, 3 * n + 2], dtype=np.int64))
        assert not probe.reachable(indptr, indices, 0, 4,
                                   removed_keys=removed)
        assert probe.reachable(indptr, indices, 0, 2, removed_keys=removed)

    def test_added_overlay_connects(self):
        graph = two_component_graph()
        n = graph.num_nodes
        indptr, indices = graph.csr()
        probe = BudgetedReachability(n)
        added = np.sort(np.array([3 * n + 6, 6 * n + 3], dtype=np.int64))
        assert probe.reachable(indptr, indices, 0, 6, added_keys=added)
        # The isolated node's own overlay row is walked too.
        assert probe.reachable(indptr, indices, 6, 1, added_keys=added)

    def test_budget_respected_on_dense_levels(self):
        # A star plus one far leaf: the hub level alone outweighs a small
        # budget, so the probe must stop instead of gathering the whole row.
        n = 100
        graph = AttributedGraph(n, 0)
        graph.add_edges_from((0, i) for i in range(1, n - 1))
        graph.add_edge(n - 2, n - 1)
        indptr, indices = graph.csr()
        probe = BudgetedReachability(n)
        assert not probe.reachable(indptr, indices, 0, n - 1, edge_budget=4)
        assert probe.reachable(indptr, indices, 0, n - 1, edge_budget=4096)
