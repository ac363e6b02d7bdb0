"""Property suite for the graph's edge store.

``AttributedGraph`` keeps an immutable sorted CSR (the read form) and, once
something writes edge by edge, per-node neighbour sets (the write form).
Whatever sequence of writes, ``csr()`` rebuilds, copies, pickling
round-trips and set builds a graph goes through, after every step it must
equal ``from_edge_arrays`` of the edge set it holds: the same CSR arrays
and dtypes, degrees, edge count, membership and neighbour rows.  Writes to a
copy leave the original unchanged.  The invariants themselves are pinned
too: graphs built in bulk have no sets, a writer's sets survive ``csr()``
rebuilds, and a wholesale adoption drops them.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import codec
from repro.graphs.attributed import AttributedGraph


def reference_graph(n, edges):
    pairs = sorted(edges)
    return AttributedGraph.from_edge_arrays(
        n,
        np.array([u for u, _ in pairs], dtype=np.int64),
        np.array([v for _, v in pairs], dtype=np.int64),
    )


def assert_scalar_reads(graph, n, edges):
    """The reads that never rebuild the CSR: counts, degrees, membership."""
    expected = reference_graph(n, edges)
    assert graph.num_edges == len(edges)
    assert graph.degrees().dtype == np.int64
    assert np.array_equal(graph.degrees(), expected.degrees())
    for u in range(n):
        assert graph.neighbors(u) == expected.neighbors(u)
        for v in range(n):
            assert graph.has_edge(u, v) == ((min(u, v), max(u, v)) in edges)


def assert_equals_reference(graph, n, edges):
    """Everything, the CSR arrays and their storage dtypes included."""
    assert_scalar_reads(graph, n, edges)
    expected = reference_graph(n, edges)
    for got, want in zip(graph.csr(), expected.csr()):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert not got.flags.writeable
    for node in range(n):
        row = graph.neighbors_array(node)
        assert row.dtype == expected.neighbors_array(node).dtype
        assert np.array_equal(row, expected.neighbors_array(node))
    assert graph == expected


def _ops(n):
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return st.lists(
        st.one_of(
            st.tuples(st.sampled_from(["add", "remove"]), pair),
            st.tuples(st.sampled_from(["csr", "copy", "pickle", "materialize"]),
                      st.none()),
        ),
        max_size=40,
    )


# (n, start form, base edges for an array-built start, operations)
sequences = st.integers(min_value=2, max_value=12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sampled_from(["arrays", "empty"]),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                 max_size=3 * n),
        _ops(n),
    )
)


@given(sequences)
@settings(max_examples=150, deadline=None)
def test_write_sequences_match_the_reference(spec):
    n, start, base, ops = spec
    if start == "arrays":
        edges = {(min(u, v), max(u, v)) for u, v in base if u != v}
        graph = reference_graph(n, edges)
    else:
        edges = set()
        graph = AttributedGraph(n)
    branched = []  # every graph a copy was taken from, with its edge set
    for op, pair in ops:
        if op in ("add", "remove"):
            u, v = pair
            key = (min(u, v), max(u, v))
            if op == "add" and u == v:
                with pytest.raises(ValueError):
                    graph.add_edge(u, v)
            elif op == "add":
                assert graph.add_edge(u, v) == (key not in edges)
                edges.add(key)
            else:
                assert graph.remove_edge(u, v) == (key in edges)
                edges.discard(key)
        elif op == "csr":
            assert_equals_reference(graph, n, edges)
        elif op == "copy":
            branched.append((graph, set(edges)))
            graph = graph.copy()
            assert graph._adj_sets is None
            assert graph.statistics_memo is None
        elif op == "pickle":
            graph = pickle.loads(pickle.dumps(graph))
        else:
            graph.materialize_neighbor_sets()
        assert_scalar_reads(graph, n, edges)
        # A pickled clone holds the same sets and stale CSR, so checking
        # the CSR there leaves the graph's writes pending for later steps.
        assert_equals_reference(pickle.loads(pickle.dumps(graph)), n, edges)
        for original, original_edges in branched:
            assert_scalar_reads(original, n, original_edges)
    assert_equals_reference(graph, n, edges)
    for original, original_edges in branched:
        assert_equals_reference(original, n, original_edges)


class TestInvariants:
    def test_graphs_built_in_bulk_have_no_sets(self, triangle_graph):
        us, vs = triangle_graph.edge_arrays()
        built = [
            AttributedGraph.from_edge_arrays(4, us, vs),
            AttributedGraph._from_canonical_keys(4, us * 4 + vs),
            AttributedGraph.from_graph_structure(triangle_graph, 2),
            triangle_graph.copy(),
            triangle_graph.induced_subgraph([3, 2, 1]),
            codec.decode_graph_block(codec.encode_graph_block(triangle_graph)),
        ]
        for graph in built:
            assert graph._adj_sets is None
            assert graph.csr()[1].size == 2 * graph.num_edges

    def test_writer_sets_survive_csr_rebuilds(self):
        graph = AttributedGraph(5)
        sets = graph.adjacency_sets()
        graph.add_edge(0, 1)
        first = graph.csr()
        graph.add_edge(1, 2)
        graph.remove_edge(0, 1)
        second = graph.csr()
        assert second[1] is not first[1]
        assert graph.adjacency_sets() is sets
        assert sets[1] == {2} and sets[0] == set()
        assert graph.csr()[1] is second[1]  # current until the next write

    def test_adoption_drops_the_sets(self):
        graph = AttributedGraph(4)
        graph.add_edges_from([(0, 1), (1, 2)])
        replacement = AttributedGraph.from_edge_arrays(
            4, np.array([2, 0]), np.array([3, 3])
        )
        indptr, indices = replacement.csr()
        keys = np.repeat(
            np.arange(4, dtype=np.int64), np.diff(indptr)
        ) * 4 + indices
        graph._adopt_directed_keys(keys, replacement.num_edges)
        assert graph._adj_sets is None
        assert graph == replacement
        assert graph.has_edge(0, 3) and not graph.has_edge(0, 1)
        assert graph.add_edge(0, 1)  # the next write rebuilds the sets
        assert graph.neighbor_set(0) == {1, 3}

    def test_copy_shares_the_current_csr(self):
        graph = AttributedGraph(6)
        graph.add_edges_from([(0, 5), (2, 3)])
        clone = graph.copy()
        assert clone.csr()[0] is graph.csr()[0]
        assert clone.csr()[1] is graph.csr()[1]
        clone.add_edge(1, 4)
        assert not graph.has_edge(1, 4)
        assert graph.csr()[1].size == 4 and clone.csr()[1].size == 6

    def test_failed_writes_leave_the_csr_current(self):
        graph = AttributedGraph.from_edge_arrays(
            3, np.array([0]), np.array([1])
        )
        indices = graph.csr()[1]
        assert graph.add_edge(1, 0) is False
        assert graph.remove_edge(1, 2) is False
        assert graph.csr()[1] is indices

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int32])
    def test_narrow_scalar_writes_store_python_ints(self, dtype):
        # 255 * 300 wraps at 16 bits; a write must neither wrap nor leave
        # NumPy scalars in the sets for later arithmetic to wrap.
        graph = AttributedGraph(300)
        assert graph.add_edge(dtype(255), dtype(254))
        assert graph.edge_list() == [(254, 255)]
        assert graph.has_edge(254, 255) and not graph.add_edge(254, 255)
        assert {type(v) for v in graph.neighbor_set(254)} == {int}
        assert {type(v) for v in graph.neighbor_set(255)} == {int}

    def test_pickled_csr_stays_read_only(self, triangle_graph):
        triangle_graph.csr()
        restored = pickle.loads(pickle.dumps(triangle_graph))
        indptr, indices = restored.csr()
        with pytest.raises(ValueError):
            indices[0] = 3
        with pytest.raises(ValueError):
            indptr[0] = 1
