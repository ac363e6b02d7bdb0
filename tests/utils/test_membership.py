"""Tests for the membership indexes and the choice between them.

Both indexes must agree with a binary search over the sorted keys: the
partitioned bitmap across its block boundaries, the hashed key table across
its buckets, crowded ones included.  Kernel equivalence also holds across
the former dense-bitmap gate (``n <= 8192``) and on graphs whose populated
node ids are non-contiguous.  The choice between the two is pinned by bytes
per key, never by time.
"""

import numpy as np
import pytest

from repro.datasets.registry import load_dataset
from repro.graphs.attributed import AttributedGraph
from repro.graphs.statistics import triangle_count, triangles_per_node
from repro.testing.reference import (
    triangle_count_reference,
    triangles_per_node_reference,
)
from repro.utils import membership
from repro.utils.arrays import sorted_membership
from repro.utils.membership import (
    BLOCK_KEYS,
    HashedKeyTable,
    PartitionedKeyBitmap,
    membership_probe,
)

UNIVERSES = [
    100,                      # single block
    BLOCK_KEYS - 1,           # just below one block
    BLOCK_KEYS,               # exactly one block
    BLOCK_KEYS + 1,           # spills into a second block
    50 * BLOCK_KEYS,          # many blocks
]

#: Keys straddling block edges: last bit of one block, first of the next.
BOUNDARY_KEYS = np.array(
    [BLOCK_KEYS - 1, BLOCK_KEYS, 3 * BLOCK_KEYS - 1, 3 * BLOCK_KEYS],
    dtype=np.int64,
)

#: Blocks 5 and 9 only.
FAR_APART_KEYS = np.array([5 * BLOCK_KEYS + 3, 9 * BLOCK_KEYS + 8],
                          dtype=np.int64)
#: Queries below block 5, inside the absent blocks between, above block 9
#: (including far past it) and negative.
OUT_OF_RANGE_QUERIES = np.array([
    0, 3, 4 * BLOCK_KEYS + 3, 5 * BLOCK_KEYS - 1,
    5 * BLOCK_KEYS + 3, 7 * BLOCK_KEYS + 3, 9 * BLOCK_KEYS + 8,
    10 * BLOCK_KEYS + 8, 10 * BLOCK_KEYS, 1 << 40, (1 << 63) - 1,
    -1, -(5 * BLOCK_KEYS + 3), -(1 << 63),
], dtype=np.int64)


def random_keys(rng, count, universe):
    return np.unique(rng.integers(0, universe, size=count).astype(np.int64))


def bitmap_probe(keys):
    return PartitionedKeyBitmap(keys, np.unique(keys >> membership.BLOCK_BITS)
                                ).contains


def table_probe(keys):
    return HashedKeyTable(keys).contains


PROBES = {"bitmap": bitmap_probe, "table": table_probe}


@pytest.fixture(params=sorted(PROBES))
def build(request):
    return PROBES[request.param]


class TestAgreement:
    @pytest.mark.parametrize("universe", UNIVERSES)
    def test_agrees_with_sorted_membership(self, build, universe):
        rng = np.random.default_rng(universe)
        keys = random_keys(rng, 500, universe)
        queries = rng.integers(0, universe, size=2000).astype(np.int64)
        assert np.array_equal(
            build(keys)(queries), sorted_membership(keys, queries)
        )

    def test_every_key_and_its_neighbours(self, build):
        rng = np.random.default_rng(3)
        keys = random_keys(rng, 3000, 50 * BLOCK_KEYS)
        queries = np.concatenate((keys, keys - 1, keys + 1))
        assert np.array_equal(
            build(keys)(queries), sorted_membership(keys, queries)
        )

    def test_block_boundary_keys(self, build):
        queries = np.arange(4 * BLOCK_KEYS, dtype=np.int64)
        assert np.array_equal(
            build(BOUNDARY_KEYS)(queries),
            sorted_membership(BOUNDARY_KEYS, queries),
        )

    def test_queries_out_of_range_or_negative(self, build):
        assert np.array_equal(
            build(FAR_APART_KEYS)(OUT_OF_RANGE_QUERIES),
            np.isin(OUT_OF_RANGE_QUERIES, FAR_APART_KEYS),
        )

    @pytest.mark.parametrize("keys", [[0], [7], [(1 << 62) + 5]])
    def test_one_key(self, build, keys):
        keys = np.array(keys, dtype=np.int64)
        queries = np.concatenate((keys - 1, keys, keys + 1, [0, -1]))
        assert np.array_equal(build(keys)(queries), np.isin(queries, keys))

    def test_empty_queries(self, build):
        probe = build(BOUNDARY_KEYS)
        assert probe(np.empty(0, dtype=np.int64)).shape == (0,)


def test_empty_key_set_answers_no():
    probe = membership_probe(np.empty(0, dtype=np.int64))
    queries = np.array([-1, 0, 5, 10, 1 << 40], dtype=np.int64)
    assert not probe(queries).any()


def test_table_keys_spread_over_2_to_the_40():
    """The table's bytes follow its keys, not their span (a bitmap over
    these keys would need a slot table of 2^27 blocks)."""
    rng = np.random.default_rng(3)
    keys = random_keys(rng, 3000, 1 << 40)
    queries = np.concatenate((keys, keys - 1, keys + 1))
    assert np.array_equal(table_probe(keys)(queries),
                          sorted_membership(keys, queries))


def test_table_with_many_keys_in_one_bucket():
    """Twenty of 64 keys share one of the 64 buckets: probes walk them all."""
    rng = np.random.default_rng(17)
    scattered = rng.choice(1 << 30, size=44, replace=False).astype(np.int64)
    # Any table over 64 keys hashes into the same 2**6 buckets.
    hashing = HashedKeyTable(np.arange(64, dtype=np.int64))
    candidates = np.arange(1 << 30, (1 << 30) + 20000, dtype=np.int64)
    crowded = candidates[hashing._buckets(candidates) == 5][:20]
    keys = np.union1d(scattered, crowded)
    assert keys.size == 64
    table = HashedKeyTable(keys)
    assert int(np.diff(table._starts).max()) == 20
    queries = np.concatenate((keys, keys + 1, keys - 1, candidates))
    assert np.array_equal(table.contains(queries),
                          sorted_membership(keys, queries))


class TestChoice:
    """The index is chosen by bytes per key alone."""

    @staticmethod
    def _edge_keys(graph):
        us, vs = graph.edge_arrays()
        return np.sort(np.minimum(us, vs).astype(np.int64) * graph.num_nodes
                       + np.maximum(us, vs))

    @staticmethod
    def _kind(keys):
        return type(membership_probe(keys).__self__)

    @pytest.mark.parametrize("name,scale", [
        ("lastfm", 1.0), ("pokec", 0.004), ("pokec", 0.01),
    ])
    def test_dense_inputs_keep_the_bitmap(self, name, scale):
        keys = self._edge_keys(load_dataset(name, scale=scale, seed=0))
        assert self._kind(keys) is PartitionedKeyBitmap

    def test_low_density_input_gets_the_table(self):
        rng = np.random.default_rng(0)
        keys = random_keys(rng, 10_000, 1 << 32)
        assert self._kind(keys) is HashedKeyTable

    def test_threshold_is_the_byte_ratio(self, monkeypatch):
        # Two blocks far apart: 2 KiB of bitmaps plus a slot table over
        # the ~1000 blocks between them, against a two-key table.
        keys = np.array([1, 1000 * BLOCK_KEYS + 1], dtype=np.int64)
        bitmap_bytes = 2 * (BLOCK_KEYS >> 3) + (1000 + 2) * 4
        ratio = bitmap_bytes / HashedKeyTable.footprint(keys.size)
        monkeypatch.setattr(membership, "BITMAP_TABLE_RATIO", ratio)
        assert self._kind(keys) is PartitionedKeyBitmap
        monkeypatch.setattr(membership, "BITMAP_TABLE_RATIO", ratio * 0.999)
        assert self._kind(keys) is HashedKeyTable
        queries = np.array([0, 1, 2, 1000 * BLOCK_KEYS + 1], dtype=np.int64)
        assert np.array_equal(membership_probe(keys)(queries),
                              [False, True, False, True])

    def test_table_footprint_is_at_most_16_bytes_per_key(self):
        for num_keys in (1, 2, 3, 1000, 1024, 1025, 373_317):
            assert HashedKeyTable.footprint(num_keys) <= 16 * num_keys + 16


def _sparse_triangle_graph(n: int, num_nodes_used: int, seed: int,
                           spread: bool) -> AttributedGraph:
    """A graph on ``n`` ids whose edges touch only ``num_nodes_used`` of them.

    With ``spread=True`` the populated ids are scattered across the full id
    range (non-contiguous), which scatters the edge keys across bitmap
    blocks; with ``spread=False`` they are the first ids.
    """
    rng = np.random.default_rng(seed)
    if spread:
        used = np.sort(rng.choice(n, size=num_nodes_used, replace=False))
    else:
        used = np.arange(num_nodes_used)
    pairs = set()
    while len(pairs) < 3 * num_nodes_used:
        u, v = rng.choice(used, size=2)
        if u != v:
            pairs.add((min(int(u), int(v)), max(int(u), int(v))))
    us = np.array([u for u, _ in pairs], dtype=np.int64)
    vs = np.array([v for _, v in pairs], dtype=np.int64)
    return AttributedGraph.from_edge_arrays(n, us, vs)


class TestMembershipGateBoundary:
    """Kernel equivalence across the former dense-bitmap gate (n = 8192)."""

    @pytest.mark.parametrize("n", [8191, 8192, 8193])
    @pytest.mark.parametrize("spread", [False, True],
                             ids=["contiguous", "non-contiguous"])
    def test_triangles_across_gate(self, n, spread):
        graph = _sparse_triangle_graph(n, 150, seed=n, spread=spread)
        assert triangle_count(graph) == triangle_count_reference(graph)
        assert np.array_equal(
            triangles_per_node(graph), triangles_per_node_reference(graph)
        )

    @pytest.mark.parametrize("n", [8191, 8192, 8193])
    def test_bitmap_and_table_agree_across_gate(self, n, monkeypatch):
        graph = _sparse_triangle_graph(n, 120, seed=n + 77, spread=True)
        monkeypatch.setattr(membership, "BITMAP_TABLE_RATIO", float("inf"))
        bitmap = triangle_count(graph)
        monkeypatch.setattr(membership, "BITMAP_TABLE_RATIO", 0)
        assert triangle_count(graph) == bitmap == \
            triangle_count_reference(graph)
