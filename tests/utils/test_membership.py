"""Tests for the partitioned bitmap membership index.

Covers the boundary that used to be a hard gate (``n <= 8192`` dense
bitmaps): the bitmap, sorted-array and (former) dense paths must agree at
``n ∈ {8191, 8192, 8193}`` and on graphs whose populated node ids are
non-contiguous.
"""

import numpy as np
import pytest

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
    PartitionedKeyBitmap,
    membership_probe,
)


def random_keys(rng, count, universe):
    return np.unique(rng.integers(0, universe, size=count).astype(np.int64))


def bitmap_probe(keys):
    """``membership_probe`` with room for the bitmap, checked to use it."""
    probe = membership_probe(keys, budget_bytes=1 << 30)
    assert isinstance(getattr(probe, "__self__", None), PartitionedKeyBitmap)
    return probe


class TestBitmapProbe:
    @pytest.mark.parametrize("universe", [
        100,                      # single block
        BLOCK_KEYS - 1,           # just below one block
        BLOCK_KEYS,               # exactly one block
        BLOCK_KEYS + 1,           # spills into a second block
        50 * BLOCK_KEYS,          # many blocks
    ])
    def test_agrees_with_sorted_membership(self, universe):
        rng = np.random.default_rng(universe)
        keys = random_keys(rng, 500, universe)
        queries = rng.integers(0, universe, size=2000).astype(np.int64)
        assert np.array_equal(
            bitmap_probe(keys)(queries), sorted_membership(keys, queries)
        )

    def test_empty_key_set(self):
        probe = membership_probe(np.empty(0, dtype=np.int64),
                                 budget_bytes=1 << 30)
        queries = np.array([0, 5, 10], dtype=np.int64)
        assert not probe(queries).any()

    def test_block_boundary_keys(self):
        # Keys straddling block edges: last bit of one block, first of next.
        keys = np.array(
            [BLOCK_KEYS - 1, BLOCK_KEYS, 3 * BLOCK_KEYS - 1, 3 * BLOCK_KEYS],
            dtype=np.int64,
        )
        queries = np.arange(4 * BLOCK_KEYS, dtype=np.int64)
        assert np.array_equal(
            bitmap_probe(keys)(queries), sorted_membership(keys, queries)
        )

    def test_queries_outside_the_block_range(self):
        # Blocks 5 and 9 only: queries below block 5, inside the absent
        # blocks between, and above block 9 (including far past it).
        keys = np.array([5 * BLOCK_KEYS + 3, 9 * BLOCK_KEYS + 8],
                        dtype=np.int64)
        queries = np.array([
            0, 3, 4 * BLOCK_KEYS + 3, 5 * BLOCK_KEYS - 1,
            5 * BLOCK_KEYS + 3, 7 * BLOCK_KEYS + 3, 9 * BLOCK_KEYS + 8,
            10 * BLOCK_KEYS + 8, 10 * BLOCK_KEYS, 1 << 40,
        ], dtype=np.int64)
        assert np.array_equal(
            bitmap_probe(keys)(queries), sorted_membership(keys, queries)
        )


class TestMembershipProbe:
    def test_budget_zero_falls_back_to_sorted(self):
        keys = np.array([1, 5, 9], dtype=np.int64)
        probe = membership_probe(keys, budget_bytes=0)
        queries = np.array([0, 1, 5, 8, 9], dtype=np.int64)
        assert np.array_equal(
            probe(queries), np.array([False, True, True, False, True])
        )

    def test_bitmap_and_sorted_paths_agree(self):
        rng = np.random.default_rng(11)
        keys = random_keys(rng, 400, 20 * BLOCK_KEYS)
        queries = rng.integers(0, 20 * BLOCK_KEYS, size=3000).astype(np.int64)
        fast = membership_probe(keys, budget_bytes=1 << 30)
        slow = membership_probe(keys, budget_bytes=0)
        assert np.array_equal(fast(queries), slow(queries))

    def test_budget_counts_the_slot_table(self):
        # Two blocks far apart: 2 KiB of bitmaps fit the budget, the slot
        # table spanning the ~1000 blocks between them does not.
        keys = np.array([1, 1000 * BLOCK_KEYS + 1], dtype=np.int64)
        bitmap_bytes = 2 * (BLOCK_KEYS >> 3)
        # Blocks 0..1000 plus the trailing sentinel, as int32 slots.
        projected = bitmap_bytes + (1000 + 2) * 4
        fits = membership_probe(keys, budget_bytes=projected)
        assert isinstance(getattr(fits, "__self__", None),
                          PartitionedKeyBitmap)
        tight = membership_probe(keys, budget_bytes=projected - 1)
        assert not isinstance(getattr(tight, "__self__", None),
                              PartitionedKeyBitmap)
        probe = membership_probe(keys, budget_bytes=bitmap_bytes)
        assert not isinstance(getattr(probe, "__self__", None),
                              PartitionedKeyBitmap)
        queries = np.array([0, 1, 2, 1000 * BLOCK_KEYS + 1], dtype=np.int64)
        assert np.array_equal(probe(queries), [False, True, False, True])


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
    def test_bitmap_and_sorted_paths_agree_across_gate(self, n, monkeypatch):
        graph = _sparse_triangle_graph(n, 120, seed=n + 77, spread=True)
        fast = triangle_count(graph)
        monkeypatch.setattr(membership, "DEFAULT_BUDGET_BYTES", 0)
        assert triangle_count(graph) == fast == triangle_count_reference(graph)


class TestBudgetEnvironment:
    def test_budget_is_read_in_megabytes(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMBERSHIP_BUDGET_MB", "0.5")
        assert membership._default_budget_bytes() == 1 << 19

    def test_malformed_budget_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMBERSHIP_BUDGET_MB", "lots")
        with pytest.raises(ValueError,
                           match="REPRO_MEMBERSHIP_BUDGET_MB='lots'"):
            membership._default_budget_bytes()
