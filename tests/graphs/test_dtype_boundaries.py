"""Property suite for the storage index-width ladder at its rung boundaries.

The dtype discipline (:mod:`repro.graphs.dtypes`) stores base CSR arrays and
degrees at the narrowest safe width — uint8 through ``n = 256``, uint16
through ``n = 65536``, uint32 beyond.  The hazards all live at the rung
boundaries, where NEP 50 keeps ``narrow_array * python_int`` narrow and any
unwidened arithmetic (``u * n + v`` packing, ``frontier + 1`` positions,
cumsum offsets) wraps silently.  This suite pins, at
``n ∈ {254, 255, 256, 65535, 65536}`` and with non-int64 caller inputs:

* construction, edge writes with narrow caller scalars, and the CSR
  rebuild that follows them, against the pure-Python ``*_reference``
  kernels (counts bit-identical, storage dtypes on the ladder);
* the binary codec round-trip, with wire bytes identical no matter which
  input dtype the caller handed in;
* the statistics memo across mutations at a boundary width;
* TriCycLe's packed edge-age queue across the uint8 → uint16 storage rung
  and the uint32 → int64 key rung (``n ∈ {256, 257, 65536, 65537}``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import codec, dtypes
from repro.graphs import statistics as stats
from repro.graphs.attributed import AttributedGraph
from repro.graphs.components import component_labels, is_connected
from repro.models import tricycle
from repro.models.chung_lu import build_pi_distribution
from repro.models.rewiring import _SortedAdjacency
from repro.testing import reference
from repro.utils.sampling import WeightedSampler

#: The ladder's rung boundaries (and one on each side of the uint8 rung).
BOUNDARY_NS = [254, 255, 256, 65535, 65536]

#: Caller-side dtypes the boundaries must accept without silent upcasts or
#: wraps; float inputs are rejected elsewhere, these are the integer family.
CALLER_DTYPES = [np.uint8, np.uint16, np.int32, np.uint32, np.int64]


def _boundary_edges(n, rng):
    """Sparse edges biased to the extreme node ids of an ``n``-node graph.

    Always includes edges touching ``n - 1`` and a triangle at the top ids,
    the values a one-off wrap corrupts first.
    """
    fixed = [(0, n - 1), (n - 3, n - 1), (n - 3, n - 2), (n - 2, n - 1)]
    extra_us = rng.integers(0, n - 1, size=40)
    extra_vs = rng.integers(0, n - 1, size=40)
    keys = set()
    for u, v in fixed:
        keys.add((min(u, v), max(u, v)))
    for u, v in zip(extra_us.tolist(), extra_vs.tolist()):
        if u != v:
            keys.add((min(u, v), max(u, v)))
    pairs = sorted(keys)
    us = np.array([u for u, _ in pairs])
    vs = np.array([v for _, v in pairs])
    return us, vs


def _assert_counts_match_reference(graph):
    assert stats.triangle_count(graph) == \
        reference.triangle_count_reference(graph)
    assert np.array_equal(
        stats.triangles_per_node(graph),
        reference.triangles_per_node_reference(graph),
    )
    assert stats.max_common_neighbours(graph) == \
        reference.max_common_neighbours_reference(graph)
    assert graph.degrees().dtype == np.int64  # boundary API stays widened


def _assert_storage_dtypes(graph):
    """The CSR (rebuilt if writes made it stale) sits on the storage ladder."""
    indptr, indices = graph.csr()
    assert indices.dtype == dtypes.storage_index_dtype(graph.num_nodes)
    assert indptr.dtype == dtypes.storage_dtype_for_max(2 * graph.num_edges)
    assert np.array_equal(np.diff(indptr.astype(np.int64)), graph.degrees())


class TestLadder:
    """The rung boundaries of the wire, storage, and edge-key ladders."""

    @pytest.mark.parametrize("n,expected", [
        (0, np.uint8), (256, np.uint8), (257, np.uint16),
        (65536, np.uint16), (65537, np.uint32),
        (1 << 32, np.uint32), ((1 << 32) + 1, np.uint64),
    ])
    def test_wire_ladder(self, n, expected):
        assert dtypes.wire_index_dtype(n) == np.dtype(expected)

    @pytest.mark.parametrize("n,expected", [
        (0, np.uint8), (256, np.uint8), (257, np.uint16),
        (65536, np.uint16), (65537, np.uint32),
        (1 << 32, np.uint32), ((1 << 32) + 1, np.int64),
    ])
    def test_storage_ladder_tops_out_at_int64(self, n, expected):
        assert dtypes.storage_index_dtype(n) == np.dtype(expected)

    @pytest.mark.parametrize("n,expected", [
        (2, np.uint32), (65536, np.uint32), (65537, np.int64),
    ])
    def test_edge_key_ladder(self, n, expected):
        assert dtypes.edge_key_dtype(n) == np.dtype(expected)

    def test_negative_counts_raise(self):
        with pytest.raises(dtypes.IndexWidthError):
            dtypes.wire_index_dtype(-1)
        with pytest.raises(dtypes.IndexWidthError):
            dtypes.storage_index_dtype(-1)
        with pytest.raises(dtypes.IndexWidthError):
            dtypes.storage_dtype_for_max(-1)

    def test_checked_cast_rejects_out_of_range(self):
        with pytest.raises(dtypes.IndexWidthError):
            dtypes.checked_cast(np.array([0, 256]), np.uint8, "indices")
        narrow = dtypes.checked_cast(np.array([0, 255]), np.uint8)
        assert narrow.dtype == np.uint8

    def test_checked_node_ids_rejects_out_of_range(self):
        with pytest.raises(dtypes.IndexWidthError):
            dtypes.checked_node_ids(np.array([0, 7]), 7)
        with pytest.raises(dtypes.IndexWidthError):
            dtypes.checked_node_ids(np.array([-1]), 7)

    def test_pack_edge_keys_never_wraps_on_narrow_inputs(self):
        # uint16(65535) * 65536 wraps to 0 unwidened; the packed key must
        # be the true 32-bit value.
        n = 65536
        us = np.array([n - 1], dtype=np.uint16)
        vs = np.array([n - 1], dtype=np.uint16)
        keys = dtypes.pack_edge_keys(us, vs, n)
        assert keys.dtype == dtypes.edge_key_dtype(n)
        assert int(keys[0]) == (n - 1) * n + (n - 1)

    def test_widen_is_int64_and_zero_copy_when_wide(self):
        wide = np.arange(4, dtype=np.int64)
        assert dtypes.widen(wide) is wide
        assert dtypes.widen(np.arange(4, dtype=np.uint8)).dtype == np.int64


class TestUint8Boundary:
    """Exhaustive hypothesis sweep at the uint8 rung (n = 254..256)."""

    @given(
        n=st.sampled_from([254, 255, 256]),
        data=st.data(),
        caller_dtype=st.sampled_from(CALLER_DTYPES),
    )
    @settings(max_examples=25, deadline=None)
    def test_mutation_fold_and_counts(self, n, data, caller_dtype):
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        base = data.draw(st.lists(pair, max_size=30))
        ops = data.draw(st.lists(pair, max_size=15))

        graph = AttributedGraph(n)
        dedup = {(min(u, v), max(u, v)) for u, v in base if u != v}
        # Always exercise the top node id — the first value a wrap corrupts.
        dedup.add((n - 2, n - 1))
        pairs = sorted(dedup)
        us = np.array([u for u, _ in pairs], dtype=caller_dtype)
        vs = np.array([v for _, v in pairs], dtype=caller_dtype)
        for u, v in zip(us, vs):  # narrow NumPy scalars, not Python ints
            assert graph.add_edge(u, v)
        assert graph.edge_list() == pairs
        _assert_storage_dtypes(graph)

        for u, v in ops:
            if u == v:
                continue
            if graph.has_edge(u, v):
                graph.remove_edge(u, v)
            else:
                graph.add_edge(u, v)
        _assert_counts_match_reference(graph)
        _assert_storage_dtypes(graph)  # rebuilt at the boundary width

        labels, count = component_labels(graph)
        assert labels.shape == (n,)
        assert count == len(set(labels.tolist()))

    @given(caller_dtype=st.sampled_from(CALLER_DTYPES))
    @settings(max_examples=5, deadline=None)
    def test_wire_bytes_independent_of_caller_dtype(self, caller_dtype):
        n = 256
        us, vs = _boundary_edges(n, np.random.default_rng(7))
        reference = AttributedGraph.from_edge_arrays(
            n, us.astype(np.int64), vs.astype(np.int64)
        )
        narrow = AttributedGraph.from_edge_arrays(
            n, us.astype(caller_dtype), vs.astype(caller_dtype)
        )
        blob = codec.encode_graph_block(narrow)
        assert blob == codec.encode_graph_block(reference)
        decoded = codec.decode_graph_block(blob)
        assert decoded == reference
        _assert_counts_match_reference(decoded)


class TestUint16Boundary:
    """Deterministic sweeps at the uint16 rung (n = 65535 / 65536).

    The reference kernels are pure Python, so the graphs stay sparse and
    the sweep is seeded rather than hypothesis-driven.
    """

    @pytest.mark.parametrize("n", [65535, 65536])
    @pytest.mark.parametrize("caller_dtype", [np.uint16, np.uint32, np.int64])
    def test_counts_and_codec_at_boundary(self, n, caller_dtype):
        us, vs = _boundary_edges(n, np.random.default_rng(n))
        graph = AttributedGraph.from_edge_arrays(
            n, us.astype(caller_dtype), vs.astype(caller_dtype)
        )
        _assert_storage_dtypes(graph)
        _assert_counts_match_reference(graph)

        # Write, rebuild the CSR, and re-check.
        graph.add_edge(1, n - 1)
        graph.remove_edge(n - 2, n - 1)
        _assert_storage_dtypes(graph)
        _assert_counts_match_reference(graph)

        blob = codec.encode_graph_block(graph)
        decoded = codec.decode_graph_block(blob)
        assert decoded == graph
        assert codec.encode_graph_block(decoded) == blob

    def test_components_at_boundary(self):
        n = 65536
        us, vs = _boundary_edges(n, np.random.default_rng(3))
        graph = AttributedGraph.from_edge_arrays(n, us, vs)
        labels, count = component_labels(graph)
        assert labels.shape == (n,)
        # The fixed triangle block is one component containing n-1.
        assert labels[n - 3] == labels[n - 1]
        assert not is_connected(graph)  # isolated nodes abound at this n
        assert count > 1


class TestMemoAtBoundary:
    """A filled statistics memo stays exact across mutations at a boundary."""

    @given(
        n=st.sampled_from([255, 256]),
        ops=st.lists(
            st.tuples(st.integers(0, 255), st.integers(0, 255)),
            max_size=20,
        ),
    )
    @settings(max_examples=20, deadline=None)
    def test_memoized_counts_match_reference(self, n, ops):
        us, vs = _boundary_edges(n, np.random.default_rng(n))
        graph = AttributedGraph.from_edge_arrays(n, us, vs)
        graph.enable_statistics_memo()
        _assert_counts_match_reference(graph)  # fills the memo
        for u, v in ops:
            u, v = u % n, v % n
            if u == v:
                continue
            if graph.has_edge(u, v):
                graph.remove_edge(u, v)
            else:
                graph.add_edge(u, v)
        assert graph.statistics_memo is not None
        _assert_storage_dtypes(graph)
        _assert_counts_match_reference(graph)


class TestEdgeAgeQueueAtBoundary:
    """Rewiring's edge-age queue packs ``u * n + v`` from the storage-width
    edge arrays.  Packing must widen first: at ``n = 257`` the uint16
    product ``256 * 257`` wraps, and at ``n = 65537`` the top keys pass
    ``2**32``."""

    @pytest.mark.parametrize("n", [256, 257, 65536, 65537])
    def test_queue_decodes_to_live_edges_and_equals_the_oracle(self, n):
        us, vs = _boundary_edges(n, np.random.default_rng(n))
        # A path over the top ids gives the loop wedges to close there.
        pairs = sorted(set(zip(us.tolist(), vs.tolist()))
                       | {(u, u + 1) for u in range(n - 8, n - 1)})
        us = np.array([u for u, _ in pairs])
        vs = np.array([v for _, v in pairs])
        outcomes = []
        for model_class in (tricycle.TriCycLeModel,
                            reference.SequentialTriCycLeModel):
            graph = AttributedGraph.from_edge_arrays(n, us, vs)
            generator = np.random.default_rng(11)
            edge_age = tricycle._edge_age_queue(graph, generator)
            self._assert_live_edges(graph, edge_age)
            tau = stats.triangle_count(graph)
            model = model_class(graph.degrees(), tau + 20)
            model._rewire_exact(
                graph, _SortedAdjacency(graph), edge_age, tau, tau + 20,
                30 * graph.num_edges,
                WeightedSampler(build_pi_distribution(graph.degrees())),
                generator, None,
            )
            self._assert_live_edges(graph, edge_age)
            outcomes.append((graph, list(edge_age),
                             generator.bit_generator.state))
        (graph, queue, state), (oracle, oracle_queue, oracle_state) = outcomes
        assert graph == oracle
        assert queue == oracle_queue
        assert state == oracle_state

    @staticmethod
    def _assert_live_edges(graph, edge_age):
        """Every key decodes to a canonical live edge, each edge once."""
        n = graph.num_nodes
        decoded = [divmod(key, n) for key in edge_age]
        assert all(0 <= u < v < n for u, v in decoded)
        assert sorted(decoded) == graph.edge_list()
