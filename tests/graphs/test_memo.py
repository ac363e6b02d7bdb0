"""Property suite for the graph's opt-in statistics memo.

The contract of ``AttributedGraph.enable_statistics_memo``: every figure
the public kernels serve from a filled memo — the triangle count, the
per-node triangle counts, the common-neighbour maximum — plus the wedge
count and degree histogram is bit-identical to the pure-Python oracles
(and the direct degree formulas) at every point of an arbitrary mutation
sequence, because every edge or attribute write clears the memo.
That includes add/remove of the same edge, removal of base edges through
the overlay, and mutations straddling overlay fold/compaction boundaries.
Copies start without a memo, pickling keeps it, and a graph that never
turned it on computes without storing.
"""

import pickle
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import attributed as attributed_module
from repro.graphs import statistics as stats
from repro.graphs.attributed import AttributedGraph
from repro.testing import reference


def assert_counts_bit_equal(graph):
    """Served counts must match the oracles exactly."""
    degrees = graph.degrees().astype(np.int64)
    assert stats.triangle_count(graph) == \
        reference.triangle_count_reference(graph)
    assert np.array_equal(
        stats.triangles_per_node(graph),
        reference.triangles_per_node_reference(graph),
    )
    assert stats.max_common_neighbours(graph) == \
        reference.max_common_neighbours_reference(graph)
    assert stats.wedge_count(graph) == \
        int((degrees * (degrees - 1) // 2).sum())
    max_degree = int(degrees.max()) if degrees.size else 0
    assert np.array_equal(
        stats.degree_histogram(graph),
        np.bincount(degrees, minlength=max_degree + 1),
    )


def filled(graph):
    """Turn ``graph``'s memo on and fill it with every memoized statistic."""
    graph.enable_statistics_memo()
    assert_counts_bit_equal(graph)
    assert set(graph.statistics_memo) == {"triangles", "max_common_neighbours"}
    return graph


def scan_kinds(scan_log, graph=None):
    return Counter(kind for kind, scanned in scan_log
                   if graph is None or scanned is graph)


def toggle(graph, u, v):
    if graph.has_edge(u, v):
        graph.remove_edge(u, v)
    else:
        graph.add_edge(u, v)


# (n, base edge list, mutation ops); "fold" ops force a compaction.
mutation_strategy = st.integers(min_value=2, max_value=14).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=25,
        ),
        st.lists(
            st.one_of(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                st.just("fold"),
            ),
            max_size=40,
        ),
    )
)


def build_base(n, raw_edges) -> AttributedGraph:
    graph = AttributedGraph(n)
    for u, v in raw_edges:
        if u != v:
            graph.add_edge(u, v)
    graph.csr()  # fold the construction overlay into the base CSR
    return graph


class TestRandomizedMutationSequences:
    @given(mutation_strategy)
    @settings(max_examples=60)
    def test_memoized_counts_track_references(self, spec):
        n, raw_edges, ops = spec
        graph = filled(build_base(n, raw_edges))
        for op in ops:
            if op == "fold":
                graph.csr()
            else:
                u, v = op
                if u != v:
                    toggle(graph, u, v)
        assert_counts_bit_equal(graph)
        assert graph.statistics_memo is not None

    @given(mutation_strategy)
    @settings(max_examples=30)
    def test_queries_interleaved_with_mutations(self, spec):
        n, raw_edges, ops = spec
        graph = filled(build_base(n, raw_edges))
        for index, op in enumerate(ops):
            if op == "fold":
                graph.csr()
            else:
                u, v = op
                if u != v:
                    toggle(graph, u, v)
            if index % 5 == 0:
                assert_counts_bit_equal(graph)
        assert_counts_bit_equal(graph)


class TestEdgeCases:
    def test_add_then_remove_same_edge_is_identity(self, triangle_graph):
        graph = filled(triangle_graph)
        before = (
            stats.triangle_count(graph),
            stats.triangles_per_node(graph),
            stats.wedge_count(graph),
            stats.degree_histogram(graph),
        )
        assert graph.add_edge(1, 3)
        assert graph.remove_edge(1, 3)
        assert stats.triangle_count(graph) == before[0]
        assert np.array_equal(stats.triangles_per_node(graph), before[1])
        assert stats.wedge_count(graph) == before[2]
        assert np.array_equal(stats.degree_histogram(graph), before[3])
        assert_counts_bit_equal(graph)

    def test_remove_base_edge_through_overlay(self, triangle_graph):
        triangle_graph.csr()  # make {0,1,2} triangle part of the base
        graph = filled(triangle_graph)
        assert stats.triangle_count(graph) == 1
        assert graph.remove_edge(0, 1)  # base edge, overlay delete
        assert stats.triangle_count(graph) == 0
        assert_counts_bit_equal(graph)
        # Re-inserting cancels the pending deletion; counts must return.
        assert graph.add_edge(0, 1)
        assert stats.triangle_count(graph) == 1
        assert_counts_bit_equal(graph)

    def test_counts_exact_across_automatic_fold_boundary(self, monkeypatch):
        # Shrink the fold threshold so the mutation stream crosses several
        # automatic compactions while the memo is on.
        monkeypatch.setattr(attributed_module, "_OVERLAY_COMPACT_MIN", 4)
        folds = []
        compact = AttributedGraph._compact

        def counted_compact(graph):
            folds.append(graph)
            compact(graph)

        monkeypatch.setattr(AttributedGraph, "_compact", counted_compact)
        rng = np.random.default_rng(7)
        n = 30
        graph = AttributedGraph(n)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for index in rng.choice(len(pairs), size=80, replace=False):
            graph.add_edge(*pairs[index])
        graph.csr()
        filled(graph)
        folds.clear()
        for index in rng.choice(len(pairs), size=300, replace=True):
            toggle(graph, *pairs[index])
            if index % 50 == 0:
                assert_counts_bit_equal(graph)
        assert folds
        assert_counts_bit_equal(graph)

    def test_degree_histogram_trims_trailing_zeros(self, star_graph):
        graph = filled(star_graph)
        assert stats.degree_histogram(graph).size == 6  # hub degree 5
        for leaf in range(2, 6):
            graph.remove_edge(0, leaf)
        # Max degree dropped from 5 to 1: the histogram must shrink too.
        assert np.array_equal(stats.degree_histogram(graph), np.array([4, 2]))
        assert_counts_bit_equal(graph)

    def test_clear_edges_resets_counts(self, triangle_graph):
        graph = filled(triangle_graph)
        graph.clear_edges()
        assert graph.statistics_memo == {}
        assert stats.triangle_count(graph) == 0
        assert stats.wedge_count(graph) == 0
        assert np.array_equal(stats.degree_histogram(graph), np.array([4]))
        assert_counts_bit_equal(graph)

    def test_empty_graph(self, empty_graph):
        graph = filled(empty_graph)
        assert stats.triangle_count(graph) == 0
        assert stats.wedge_count(graph) == 0
        assert np.array_equal(stats.degree_histogram(graph), np.array([5]))
        assert_counts_bit_equal(graph)


class TestLifecycle:
    def test_enable_is_idempotent_and_lazy(self, triangle_graph, scan_log):
        assert triangle_graph.statistics_memo is None
        triangle_graph.enable_statistics_memo()
        memo = triangle_graph.statistics_memo
        assert memo == {} and not scan_log  # nothing computed up front
        stats.triangle_count(triangle_graph)
        triangle_graph.enable_statistics_memo()
        assert triangle_graph.statistics_memo is memo
        assert "triangles" in memo  # enabling again keeps what it holds

    def test_unprimed_graph_computes_without_storing(self, triangle_graph,
                                                      scan_log):
        for _ in range(2):
            assert stats.triangle_count(triangle_graph) == 1
            assert stats.max_common_neighbours(triangle_graph) == 1
        assert triangle_graph.statistics_memo is None
        # triangle_count stays the totals-only scan, once per call.
        assert scan_kinds(scan_log) == {"totals": 2, "max-cn": 2}

    def test_memo_serves_repeat_queries_without_rescanning(
            self, triangle_graph, scan_log):
        triangle_graph.enable_statistics_memo()
        for _ in range(2):
            assert stats.triangle_count(triangle_graph) == 1
            assert stats.triangles_per_node(triangle_graph).sum() == 3
            assert stats.max_common_neighbours(triangle_graph) == 1
            stats.summary(triangle_graph)
        assert scan_kinds(scan_log) == {"per-node": 1, "max-cn": 1}

    def test_served_per_node_counts_are_copies(self, triangle_graph):
        graph = filled(triangle_graph)
        stats.triangles_per_node(graph)[:] = 99
        assert_counts_bit_equal(graph)

    def test_wholesale_adoption_clears_the_memo(self, triangle_graph):
        graph = filled(triangle_graph)
        replacement = AttributedGraph(4)
        replacement.add_edges_from([(0, 3), (1, 3), (0, 1)])
        indptr, indices = replacement.csr()
        keys = np.repeat(
            np.arange(4, dtype=np.int64), np.diff(indptr)
        ) * 4 + indices
        graph._adopt_directed_keys(keys, replacement.num_edges)
        assert graph.statistics_memo == {}
        assert_counts_bit_equal(graph)

    def test_bulk_insert_clears_the_memo(self):
        graph = AttributedGraph(8)
        graph.add_edges_from([(0, 1), (1, 2), (2, 3)])
        filled(graph)
        # The batch closes triangles both with existing edges and among its
        # own members ({4,5,6} becomes a triangle entirely inside the batch).
        graph.add_edges_arrays(
            np.array([0, 4, 5, 4, 0]), np.array([2, 5, 6, 6, 4])
        )
        assert graph.statistics_memo == {}
        assert stats.triangle_count(graph) == 2
        assert_counts_bit_equal(graph)

    def test_copies_start_without_the_memo(self, triangle_graph):
        graph = filled(triangle_graph)
        assert graph.copy().statistics_memo is None
        assert graph.structural_copy().statistics_memo is None
        assert AttributedGraph.from_graph_structure(graph, 1) \
            .statistics_memo is None
        assert graph.induced_subgraph([0, 1, 2]).statistics_memo is None

    def test_filled_memo_survives_pickling(self, triangle_graph, scan_log):
        filled(triangle_graph)
        restored = pickle.loads(pickle.dumps(triangle_graph))
        memo = restored.statistics_memo
        assert memo["triangles"][0] == 1
        assert np.array_equal(memo["triangles"][1], [1, 1, 1, 0])
        assert memo["max_common_neighbours"] == 1
        scan_log.clear()
        assert stats.triangle_count(restored) == 1
        assert stats.max_common_neighbours(restored) == 1
        assert not scan_log  # no re-scan after unpickling
        restored.add_edge(1, 3)
        assert_counts_bit_equal(restored)

    def test_attribute_writes_clear_the_memo(self, triangle_graph, scan_log):
        graph = filled(triangle_graph)
        scan_log.clear()
        value = stats.max_common_neighbours(graph)
        assert not scan_log
        graph.set_attributes(0, [0, 1])
        assert graph.statistics_memo == {}
        assert stats.max_common_neighbours(graph) == value
        assert scan_kinds(scan_log) == {"max-cn": 1}
        graph.set_all_attributes(np.zeros((4, 2), dtype=np.uint8))
        assert graph.statistics_memo == {}
        assert_counts_bit_equal(graph)
