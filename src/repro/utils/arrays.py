"""Shared array primitives for the CSR fast paths.

Centralises the sorted-key membership test the statistics kernels and the
batched generators fall back to when the partitioned bitmap index
(:mod:`repro.utils.membership`) would exceed its byte budget.
"""

from __future__ import annotations

import numpy as np


def sorted_membership(sorted_keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Boolean mask: which ``queries`` occur in the sorted key array."""
    if sorted_keys.size == 0 or queries.size == 0:
        return np.zeros(queries.shape, dtype=bool)
    positions = np.searchsorted(sorted_keys, queries)
    hits = np.zeros(queries.shape, dtype=bool)
    valid = positions < sorted_keys.size
    hits[valid] = sorted_keys[positions[valid]] == queries[valid]
    return hits


def directed_keys_to_csr(num_nodes: int, sorted_directed_keys: np.ndarray
                         ) -> "tuple[np.ndarray, np.ndarray]":
    """Decode sorted directed edge keys ``u * n + v`` into CSR arrays.

    Returns ``(indptr, indices)`` with ``indices`` in per-row sorted order —
    the shared kernel behind the graph's edge store and the rewiring
    engine's snapshots.
    """
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    if sorted_directed_keys.size == 0:
        return indptr, np.empty(0, dtype=np.int64)
    np.cumsum(
        np.bincount(sorted_directed_keys // num_nodes, minlength=num_nodes),
        out=indptr[1:],
    )
    return indptr, sorted_directed_keys % num_nodes


def fold_sorted_keys(sorted_keys: np.ndarray, added: np.ndarray,
                     removed: np.ndarray) -> np.ndarray:
    """Fold a delta overlay into a sorted key array (sort-free, O(n + δ)).

    ``removed`` must be a sorted subset of ``sorted_keys`` and ``added`` a
    sorted array disjoint from it; the merge deletes at matched positions
    and inserts at ``searchsorted`` positions, so the result stays sorted
    without a sort pass.
    """
    keys = sorted_keys
    if removed.size:
        keep = np.ones(keys.size, dtype=bool)
        keep[np.searchsorted(keys, removed)] = False
        keys = keys[keep]
    if added.size:
        keys = np.insert(keys, np.searchsorted(keys, added), added)
    return keys


def sorted_intersect(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Common values of two *sorted* arrays, via a searchsorted merge.

    Enumerates the smaller side and tests membership in the larger with one
    binary-search pass — the shared kernel behind the graph's CSR
    common-neighbour counts and the rewiring engine's snapshot merges.
    """
    if a.size > b.size:
        a, b = b, a
    if a.size == 0:
        return a[:0]
    positions = np.searchsorted(b, a)
    hits = positions < b.size
    hits[hits] = b[positions[hits]] == a[hits]
    return a[hits]
