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
:func:`membership_probe` packages that decision; :class:`DynamicKeySet`
adds incremental insertion (with block growth and a transparent downgrade
to the sorted representation) for the batched generators' cross-round
collision tracking.
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
    """Per-block packed bitmaps over a sparse set of non-negative int keys."""

    __slots__ = ("_block_ids", "_bits", "_slots")

    def __init__(self, block_ids: np.ndarray, bits: np.ndarray) -> None:
        self._block_ids = block_ids
        self._bits = bits
        self._slots = _slot_table(block_ids)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, keys: np.ndarray) -> "PartitionedKeyBitmap":
        """Build the index over ``keys`` (need not be sorted or unique)."""
        return cls.build_sorted(np.sort(np.asarray(keys, dtype=np.int64)))

    @classmethod
    def build_sorted(cls, sorted_keys: np.ndarray) -> "PartitionedKeyBitmap":
        """Build from an already *sorted* key array (one pass, no hashing)."""
        sorted_keys = np.asarray(sorted_keys, dtype=np.int64)
        block_ids = _sorted_unique(sorted_keys >> BLOCK_BITS)
        bits = np.zeros(block_ids.size * BLOCK_BYTES, dtype=np.uint8)
        index = cls(block_ids, bits)
        if sorted_keys.size:
            index._scatter_sorted(sorted_keys)
        return index

    @staticmethod
    def projected_bytes(keys: np.ndarray) -> int:
        """Bytes (bitmaps plus slot table) :meth:`build` allocates for ``keys``."""
        keys = np.asarray(keys, dtype=np.int64)
        return _footprint(np.unique(keys >> BLOCK_BITS))

    @property
    def nbytes(self) -> int:
        """Bytes held by the packed bitmaps and the slot table."""
        return int(self._bits.size) + int(self._slots.nbytes)

    @property
    def num_blocks(self) -> int:
        """Number of allocated blocks."""
        return int(self._block_ids.size)

    # ------------------------------------------------------------------
    # Queries and updates
    # ------------------------------------------------------------------
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

    def add_key(self, key: int) -> None:
        """Insert one key — the O(1) scalar fast path of :meth:`add`.

        Incremental consumers (the orphan-repair engine mainlining one
        repaired node at a time) would otherwise pay :meth:`add`'s
        vectorized machinery (unique, membership probe, segmented scatter)
        per single-element array.
        """
        table = self._slots
        row = (key >> BLOCK_BITS) - int(self._block_ids[0]) \
            if table.size else -1
        slot = int(table[row]) if 0 <= row < table.size else -1
        if slot < 0:
            self.add(np.array([key], dtype=np.int64))
            return
        offset = key & (BLOCK_KEYS - 1)
        self._bits[slot * BLOCK_BYTES + (offset >> 3)] |= np.uint8(
            1 << (offset & 7)
        )

    def add(self, keys: np.ndarray) -> None:
        """Insert ``keys``, allocating bitmap blocks for new key ranges."""
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size == 0:
            return
        fresh_blocks = np.unique(keys >> BLOCK_BITS)
        missing = fresh_blocks[~sorted_membership(self._block_ids, fresh_blocks)]
        if missing.size:
            merged = np.insert(
                self._block_ids,
                np.searchsorted(self._block_ids, missing),
                missing,
            )
            bits = np.zeros(merged.size * BLOCK_BYTES, dtype=np.uint8)
            if self._block_ids.size:
                old_slots = np.searchsorted(merged, self._block_ids)
                bits.reshape(-1, BLOCK_BYTES)[old_slots] = \
                    self._bits.reshape(-1, BLOCK_BYTES)
            self._block_ids = merged
            self._bits = bits
            self._slots = _slot_table(merged)
        self._scatter(keys)

    def _scatter(self, keys: np.ndarray) -> None:
        """Set the bits of ``keys``; every key's block must be allocated."""
        self._scatter_sorted(np.sort(keys))

    def _scatter_sorted(self, keys: np.ndarray) -> None:
        """Like :meth:`_scatter` for keys already in sorted order."""
        slots = self._slots[(keys >> BLOCK_BITS) - self._block_ids[0]]
        offsets = keys & (BLOCK_KEYS - 1)
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
            bits = np.zeros(block_ids.size * BLOCK_BYTES, dtype=np.uint8)
            bitmap = PartitionedKeyBitmap(block_ids, bits)
            bitmap._scatter_sorted(sorted_keys)
            return bitmap.contains

    def probe(queries: np.ndarray) -> np.ndarray:
        return sorted_membership(sorted_keys, queries)

    return probe


class DynamicKeySet:
    """A growing key set with bitmap-accelerated membership tests.

    Maintains the authoritative sorted key array and, while the byte budget
    allows, a :class:`PartitionedKeyBitmap` accelerator.  When an insertion
    would overrun the budget the accelerator is dropped and the set degrades
    transparently to sorted-array membership.
    """

    __slots__ = ("_keys", "_bitmap", "_budget")

    def __init__(self, sorted_keys: np.ndarray,
                 budget_bytes: Optional[int] = None) -> None:
        self._keys = np.asarray(sorted_keys, dtype=np.int64)
        self._budget = (
            DEFAULT_BUDGET_BYTES if budget_bytes is None else int(budget_bytes)
        )
        bitmap: Optional[PartitionedKeyBitmap] = None
        if PartitionedKeyBitmap.projected_bytes(self._keys) <= self._budget:
            bitmap = PartitionedKeyBitmap.build(self._keys)
        self._bitmap = bitmap

    @property
    def keys(self) -> np.ndarray:
        """The sorted member keys."""
        return self._keys

    @property
    def uses_bitmap(self) -> bool:
        """Whether the bitmap accelerator is currently live."""
        return self._bitmap is not None

    def contains(self, queries: np.ndarray) -> np.ndarray:
        """Boolean mask: which ``queries`` are members."""
        if self._bitmap is not None:
            return self._bitmap.contains(queries)
        return sorted_membership(self._keys, queries)

    def add(self, sorted_new_keys: np.ndarray) -> None:
        """Insert ``sorted_new_keys`` (sorted, distinct, not yet members)."""
        fresh = np.asarray(sorted_new_keys, dtype=np.int64)
        if fresh.size == 0:
            return
        self._keys = np.insert(
            self._keys, np.searchsorted(self._keys, fresh), fresh
        )
        if self._bitmap is None:
            return
        # The bitmap after the insertion covers exactly the sorted keys.
        if _footprint(_sorted_unique(self._keys >> BLOCK_BITS)) > self._budget:
            self._bitmap = None
            return
        self._bitmap.add(fresh)
