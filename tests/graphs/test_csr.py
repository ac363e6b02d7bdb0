"""Tests for the cached CSR view and its invalidation contract."""

import numpy as np
import pytest

from repro.graphs.attributed import AttributedGraph


def random_graph(n: int, p: float, seed: int) -> AttributedGraph:
    rng = np.random.default_rng(seed)
    graph = AttributedGraph(n, 0)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                graph.add_edge(u, v)
    return graph


class TestCsrView:
    def test_matches_adjacency(self):
        graph = random_graph(40, 0.2, seed=1)
        indptr, indices = graph.csr()
        assert indptr[0] == 0
        assert indptr[-1] == indices.size == 2 * graph.num_edges
        for v in graph.nodes():
            row = indices[indptr[v]:indptr[v + 1]]
            assert list(row) == sorted(graph.neighbor_set(v))

    def test_rows_are_sorted(self):
        graph = random_graph(30, 0.3, seed=2)
        indptr, indices = graph.csr()
        for v in graph.nodes():
            row = indices[indptr[v]:indptr[v + 1]]
            assert np.all(row[1:] > row[:-1])

    def test_empty_graph(self):
        graph = AttributedGraph(5, 0)
        indptr, indices = graph.csr()
        assert list(indptr) == [0] * 6
        assert indices.size == 0

    def test_arrays_are_read_only(self):
        graph = random_graph(10, 0.4, seed=3)
        indptr, indices = graph.csr()
        with pytest.raises(ValueError):
            indptr[0] = 7
        with pytest.raises(ValueError):
            indices[0] = 7


class TestCsrInvalidation:
    def test_cache_reused_while_unmutated(self):
        graph = random_graph(25, 0.3, seed=4)
        first = graph.csr()
        second = graph.csr()
        assert first[0] is second[0]
        assert first[1] is second[1]

    def test_add_edge_recomputes(self):
        graph = random_graph(25, 0.2, seed=5)
        graph.remove_edge(0, 24)  # ensure absent (no-op if it already is)
        indptr, indices = graph.csr()
        assert graph.add_edge(0, 24)
        new_indptr, new_indices = graph.csr()
        assert new_indices is not indices
        assert new_indices.size == indices.size + 2
        assert 24 in graph.neighbor_set(0)
        row = new_indices[new_indptr[0]:new_indptr[1]]
        assert sorted(graph.neighbor_set(0)) == list(row)

    def test_remove_edge_invalidates(self):
        graph = AttributedGraph(4, 0)
        graph.add_edges_from([(0, 1), (1, 2), (2, 3)])
        indptr, indices = graph.csr()
        graph.remove_edge(1, 2)
        new_indptr, new_indices = graph.csr()
        assert new_indices.size == indices.size - 2
        assert new_indptr[-1] == 2 * graph.num_edges

    def test_failed_mutation_keeps_cache(self):
        graph = AttributedGraph(4, 0)
        graph.add_edge(0, 1)
        first = graph.csr()
        assert graph.add_edge(0, 1) is False        # duplicate: no-op
        assert graph.remove_edge(2, 3) is False     # absent: no-op
        second = graph.csr()
        assert first[0] is second[0] and first[1] is second[1]

    def test_adoption_replaces_a_stale_csr(self):
        # A wholesale adoption installs the new edge set and drops the sets
        # that held the writes the CSR had not seen.
        graph = random_graph(10, 0.5, seed=6)
        graph.add_edge(*next(
            (u, v) for u in range(10) for v in range(u + 1, 10)
            if not graph.has_edge(u, v)
        ))
        graph._adopt_directed_keys(np.empty(0, dtype=np.int64), 0)
        indptr, indices = graph.csr()
        assert indices.size == 0
        assert list(indptr) == [0] * 11
        assert graph.num_edges == 0 and not graph.degrees().any()
        assert not graph.has_edge(0, 1) and graph.neighbor_set(0) == set()


class TestFromEdgeArrays:
    def test_equivalent_to_incremental_build(self):
        rng = np.random.default_rng(7)
        n = 30
        pairs = set()
        while len(pairs) < 60:
            u, v = sorted(rng.integers(0, n, size=2).tolist())
            if u != v:
                pairs.add((u, v))
        us = np.array([u for u, _ in pairs])
        vs = np.array([v for _, v in pairs])
        bulk = AttributedGraph.from_edge_arrays(n, us, vs)
        incremental = AttributedGraph(n, 0)
        incremental.add_edges_from(pairs)
        assert bulk == incremental
        assert bulk.num_edges == len(pairs)

    def test_lazy_then_mutate(self):
        graph = AttributedGraph.from_edge_arrays(
            5, np.array([0, 1]), np.array([1, 2])
        )
        # CSR-only state answers degree queries without materialising sets.
        assert list(graph.degrees()) == [1, 2, 1, 0, 0]
        assert graph.add_edge(3, 4)
        assert graph.has_edge(0, 1) and graph.has_edge(3, 4)
        assert graph.num_edges == 3
        indptr, indices = graph.csr()
        assert indptr[-1] == 6

    def test_rejects_self_loops_and_duplicates(self):
        with pytest.raises(ValueError):
            AttributedGraph.from_edge_arrays(3, np.array([1]), np.array([1]))
        with pytest.raises(ValueError):
            AttributedGraph.from_edge_arrays(
                3, np.array([0, 1]), np.array([1, 0])
            )
        with pytest.raises(KeyError):
            AttributedGraph.from_edge_arrays(3, np.array([0]), np.array([5]))

    def test_copy_of_eager_graph_rebuilds_csr(self):
        # Regression: a copy must not inherit the fresh clone's empty CSR.
        graph = random_graph(20, 0.3, seed=12)
        clone = graph.copy()
        indptr, indices = clone.csr()
        assert indptr[-1] == 2 * clone.num_edges
        assert np.array_equal(indices, graph.csr()[1])

    def test_copy_of_lazy_graph(self):
        graph = AttributedGraph.from_edge_arrays(
            4, np.array([0, 1, 2]), np.array([1, 2, 3])
        )
        clone = graph.copy()
        clone.add_edge(0, 3)
        assert clone.num_edges == 4
        assert graph.num_edges == 3
        assert not graph.has_edge(0, 3)


class TestWriteForm:
    """The edge store: an immutable CSR plus neighbour sets for writers."""

    def test_writes_answer_from_the_sets_until_csr_rebuilds(self):
        graph = AttributedGraph.from_edge_arrays(
            30, *random_graph(30, 0.2, seed=21).edge_arrays()
        )
        assert graph._adj_sets is None  # built in bulk: no write form
        indptr, indices = graph.csr()
        fresh = [(u, v) for u in range(30) for v in range(u + 1, 30)
                 if not graph.has_edge(u, v)][:5]
        for u, v in fresh:
            graph.add_edge(u, v)
        # Queries are exact before csr() rebuilds the read form.
        for u, v in fresh:
            assert graph.has_edge(u, v)
        assert np.array_equal(graph.degrees(), np.diff(indptr.astype(int))
                              + np.bincount(np.ravel(fresh), minlength=30))
        new_indptr, new_indices = graph.csr()
        assert new_indptr[-1] == 2 * graph.num_edges
        assert new_indices is not indices
        assert graph.csr()[1] is new_indices  # current again until a write
        assert graph._adj_sets is not None  # the writer's sets are kept

    def test_neighbors_array_reads_the_rebuilt_csr(self):
        graph = random_graph(25, 0.25, seed=22)
        graph.csr()
        target = 7
        row_before = graph.neighbors_array(target).tolist()
        added = next(v for v in range(25)
                     if v != target and not graph.has_edge(target, v))
        graph.add_edge(target, added)
        if row_before:
            graph.remove_edge(target, row_before[0])
        expected = sorted(set(row_before[1:]) | {added}) if row_before \
            else [added]
        assert graph.neighbors_array(target).tolist() == expected
        assert sorted(graph.neighbor_set(target)) == expected

    def test_degrees_maintained_incrementally(self):
        graph = random_graph(20, 0.3, seed=23)
        rng = np.random.default_rng(1)
        for _ in range(40):
            u, v = rng.integers(0, 20, size=2)
            if u == v:
                continue
            if graph.has_edge(int(u), int(v)):
                graph.remove_edge(int(u), int(v))
            else:
                graph.add_edge(int(u), int(v))
            indptr, _ = graph.csr()
            assert np.array_equal(graph.degrees(), np.diff(indptr))

    def test_count_common_neighbors_array_path(self):
        # A CSR-only graph must count without building the sets.
        graph = AttributedGraph.from_edge_arrays(
            8, np.array([0, 0, 1, 1, 2, 3]), np.array([2, 3, 2, 3, 4, 4])
        )
        assert graph._adj_sets is None
        assert graph.count_common_neighbors(0, 1) == 2
        assert graph.count_common_neighbors(2, 3) == 3
        assert graph._adj_sets is None
        assert graph.common_neighbors(0, 1) == {2, 3}

    def test_readd_of_removed_edge_restores_equal_csr(self):
        graph = AttributedGraph.from_edge_arrays(
            4, np.array([0, 1]), np.array([1, 2])
        )
        indptr, indices = graph.csr()
        graph.remove_edge(0, 1)
        assert graph.csr()[1].size == 2
        graph.add_edge(0, 1)
        new_indptr, new_indices = graph.csr()
        assert new_indptr.dtype == indptr.dtype
        assert new_indices.dtype == indices.dtype
        assert np.array_equal(new_indptr, indptr)
        assert np.array_equal(new_indices, indices)
        assert graph.has_edge(0, 1)
        assert graph.num_edges == 2

    def test_from_graph_structure_shares_structure(self):
        source = random_graph(15, 0.3, seed=24)
        clone = AttributedGraph.from_graph_structure(source, 2)
        assert clone.num_attributes == 2
        assert clone.num_edges == source.num_edges
        assert np.array_equal(clone.csr()[1], source.csr()[1])
        assert not clone.attributes.any()
        absent = next(
            (u, v) for u in range(15) for v in range(u + 1, 15)
            if not clone.has_edge(u, v)
        )
        clone.add_edge(*absent)
        # the source is unaffected by clone mutations
        assert not source.has_edge(*absent)
        assert source.num_edges == clone.num_edges - 1

    def test_degrees_view_is_live_and_read_only(self):
        graph = AttributedGraph(5, 0)
        view = graph.degrees_view()
        graph.add_edge(0, 1)
        assert view[0] == 1 and view[1] == 1
        with pytest.raises(ValueError):
            view[0] = 3

    def test_edge_arrays_sorted_canonical(self):
        graph = random_graph(12, 0.4, seed=25)
        us, vs = graph.edge_arrays()
        assert np.all(us < vs)
        keys = us * 12 + vs
        assert np.all(keys[1:] > keys[:-1])
        assert list(zip(us.tolist(), vs.tolist())) == graph.edge_list()
