"""Unit tests for the sorted-key array primitives behind the CSR paths."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.arrays import (
    directed_keys_to_csr,
    fold_sorted_keys,
    sorted_intersect,
)

keys_strategy = st.sets(st.integers(0, 200), max_size=40)


def as_sorted(values) -> np.ndarray:
    return np.array(sorted(values), dtype=np.int64)


class TestDirectedKeysToCsr:
    def test_rows_and_sorted_neighbours(self):
        n = 5
        edges = [(0, 1), (0, 3), (1, 2), (3, 4)]
        keys = as_sorted([u * n + v for u, v in edges]
                         + [v * n + u for u, v in edges])
        indptr, indices = directed_keys_to_csr(n, keys)
        assert indptr.tolist() == [0, 2, 4, 5, 7, 8]
        assert indices.tolist() == [1, 3, 0, 2, 1, 0, 4, 3]

    def test_no_keys_gives_empty_rows(self):
        indptr, indices = directed_keys_to_csr(3, np.empty(0, dtype=np.int64))
        assert indptr.tolist() == [0, 0, 0, 0]
        assert indices.size == 0 and indices.dtype == np.int64


class TestFoldSortedKeys:
    @given(keys_strategy, st.data())
    def test_matches_set_algebra(self, keys, data):
        removed = data.draw(st.sets(st.sampled_from(sorted(keys)))
                            if keys else st.just(set()))
        added = data.draw(st.sets(st.integers(0, 200).filter(
            lambda key: key not in keys), max_size=20))
        folded = fold_sorted_keys(as_sorted(keys), as_sorted(added),
                                  as_sorted(removed))
        assert folded.tolist() == sorted((keys - removed) | added)

    def test_empty_overlay_returns_the_keys(self):
        keys = as_sorted([2, 5, 9])
        empty = np.empty(0, dtype=np.int64)
        assert fold_sorted_keys(keys, empty, empty) is keys


class TestSortedIntersect:
    @given(keys_strategy, keys_strategy)
    def test_matches_set_intersection(self, a, b):
        common = sorted_intersect(as_sorted(a), as_sorted(b))
        assert common.tolist() == sorted(a & b)

    def test_empty_side_keeps_the_dtype(self):
        common = sorted_intersect(np.empty(0, dtype=np.int32),
                                  np.arange(5, dtype=np.int32))
        assert common.size == 0 and common.dtype == np.int32
