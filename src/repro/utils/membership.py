"""Partitioned bitmap membership index for integer key sets.

The CSR fast paths repeatedly ask "which of these (edge-)keys are members of
that key set?".  The original implementation answered with a dense ``n * n``
boolean table gated at ``n <= 8192`` nodes (64 MB) and fell back to a
``searchsorted`` pass over the sorted keys above the gate — which meant the
dense-speed path was simply unavailable at epinions/pokec scale.

:class:`PartitionedKeyBitmap` removes the hard gate.  The key space is
partitioned into blocks of ``2**13`` consecutive keys (a key's block is
``key >> 13``) and a **packed 1 KiB bitmap is allocated only for blocks that
actually contain keys**.  A dense block → slot table over the allocated
blocks' range (``-1`` for absent blocks) locates each bitmap, so membership
is a vectorized three-step pass: one table gather, one byte gather, one bit
test.  For graphs below the old gate this strictly dominates the dense
table (same O(1) probes, a fraction of the memory); above it, it keeps
bitmap probes available as long as the key *density* allows.

Memory stays bounded: building is subject to a byte budget
(``REPRO_MEMBERSHIP_BUDGET_MB``, default 256; a value that is not a number
fails the import) that counts the bitmaps and the slot table, and callers
fall back to :func:`repro.utils.arrays.sorted_membership` when scattered
keys would allocate too many blocks or span too wide a block range.
:func:`membership_probe` packages that decision for a static key set.
"""

from __future__ import annotations

import os
from typing import Callable, Optional

import numpy as np

from repro.utils.arrays import sorted_membership


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """Unique values of an already-sorted array (one diff pass, no hashing)."""
    if values.size < 2:
        return values.copy()
    return values[np.concatenate(([True], values[1:] != values[:-1]))]


#: log2 of the number of keys covered by one bitmap block.
BLOCK_BITS = 13
#: Keys covered per block.
BLOCK_KEYS = 1 << BLOCK_BITS
#: Packed bytes per block (one bit per key).
BLOCK_BYTES = BLOCK_KEYS >> 3


def _default_budget_bytes() -> int:
    raw = os.environ.get("REPRO_MEMBERSHIP_BUDGET_MB", "256")
    try:
        return max(0, int(float(raw) * (1 << 20)))
    except (ValueError, OverflowError):
        raise ValueError(
            f"REPRO_MEMBERSHIP_BUDGET_MB={raw!r} is not a finite number "
            f"of MiB"
        ) from None


#: Byte budget for bitmap allocation; module-level so tests can force the
#: sorted fallback by setting it to 0.
DEFAULT_BUDGET_BYTES = _default_budget_bytes()


def _slot_dtype(num_blocks: int) -> np.dtype:
    """Signed slot width: int32 while every slot fits, int64 beyond."""
    return np.dtype(np.int32) if num_blocks <= np.iinfo(np.int32).max \
        else np.dtype(np.int64)


def _slot_table(block_ids: np.ndarray) -> np.ndarray:
    """Dense block → slot table over ``block_ids[0] .. block_ids[-1]``.

    ``-1`` marks an absent block.  One trailing ``-1`` sentinel lets a
    query clip every out-of-range block onto an absent entry (index ``-1``
    for blocks below the range, the last index for blocks above it).
    """
    if block_ids.size == 0:
        return np.empty(0, dtype=_slot_dtype(0))
    table = np.full(int(block_ids[-1] - block_ids[0]) + 2, -1,
                    dtype=_slot_dtype(block_ids.size))
    table[block_ids - block_ids[0]] = np.arange(block_ids.size)
    return table


def _footprint(block_ids: np.ndarray) -> int:
    """Bytes of the bitmaps plus slot table over sorted unique ``block_ids``."""
    if block_ids.size == 0:
        return 0
    span = int(block_ids[-1] - block_ids[0]) + 2
    return int(block_ids.size) * BLOCK_BYTES \
        + span * _slot_dtype(block_ids.size).itemsize


class PartitionedKeyBitmap:
    """Per-block packed bitmaps over a static set of non-negative int keys."""

    __slots__ = ("_block_ids", "_bits", "_slots")

    def __init__(self, sorted_keys: np.ndarray,
                 block_ids: np.ndarray) -> None:
        """Index non-empty ``sorted_keys``; ``block_ids`` are their blocks,
        sorted and unique."""
        self._block_ids = block_ids
        self._bits = np.zeros(block_ids.size * BLOCK_BYTES, dtype=np.uint8)
        self._slots = _slot_table(block_ids)
        slots = self._slots[(sorted_keys >> BLOCK_BITS) - block_ids[0]]
        offsets = sorted_keys & (BLOCK_KEYS - 1)
        masks = np.left_shift(
            np.uint8(1), (offsets & 7).astype(np.uint8), dtype=np.uint8
        )
        byte_positions = np.multiply(slots, BLOCK_BYTES, dtype=np.int64) \
            + (offsets >> 3)
        # Sorted keys give non-decreasing byte positions, so the per-byte OR
        # is one segmented reduction (``bitwise_or.at`` measures ~20x
        # slower) followed by a unique-index scatter.
        starts = np.flatnonzero(
            np.concatenate(([True], byte_positions[1:] != byte_positions[:-1]))
        )
        self._bits[byte_positions[starts]] |= np.bitwise_or.reduceat(
            masks, starts
        )

    def contains(self, queries: np.ndarray) -> np.ndarray:
        """Boolean mask: which ``queries`` are members of the key set."""
        queries = np.asarray(queries, dtype=np.int64)
        if queries.size == 0 or self._block_ids.size == 0:
            return np.zeros(queries.shape, dtype=bool)
        table = self._slots
        slots = table[np.clip((queries >> BLOCK_BITS) - self._block_ids[0],
                              -1, table.size - 1)]
        offsets = queries & (BLOCK_KEYS - 1)
        # An absent block's slot is -1, so its byte index lands inside the
        # last bitmap; the slot test below discards whatever bit it reads.
        bytes_ = self._bits[np.multiply(slots, BLOCK_BYTES, dtype=np.int64)
                            + (offsets >> 3)]
        return (slots >= 0) & ((bytes_ >> (offsets & 7).astype(np.uint8)) & 1
                               != 0)


def membership_probe(sorted_keys: np.ndarray,
                     budget_bytes: Optional[int] = None
                     ) -> Callable[[np.ndarray], np.ndarray]:
    """Best membership test for a *static* sorted key array.

    Returns a callable ``probe(queries) -> bool mask``: a
    :class:`PartitionedKeyBitmap` when its blocks and slot table fit the
    byte budget, the plain :func:`sorted_membership` binary search
    otherwise.
    """
    if budget_bytes is None:
        budget_bytes = DEFAULT_BUDGET_BYTES
    sorted_keys = np.asarray(sorted_keys, dtype=np.int64)
    if sorted_keys.size:
        block_ids = _sorted_unique(sorted_keys >> BLOCK_BITS)
        if _footprint(block_ids) <= budget_bytes:
            return PartitionedKeyBitmap(sorted_keys, block_ids).contains

    def probe(queries: np.ndarray) -> np.ndarray:
        return sorted_membership(sorted_keys, queries)

    return probe

