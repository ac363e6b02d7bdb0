"""Membership indexes for static sets of non-negative integer keys.

The triangle kernels ask, chunk after chunk, "which of these edge keys are
members of the graph's edge set?".  Two indexes answer it, and
:func:`membership_probe` picks one from the input alone:

* :class:`PartitionedKeyBitmap` partitions the key space into blocks of
  ``2**13`` consecutive keys (a key's block is ``key >> 13``) and allocates a
  packed 1 KiB bitmap only for blocks that hold keys.  A dense block → slot
  table over the occupied blocks' range (``-1`` for absent blocks) locates
  each bitmap, so a probe is one table gather, one byte gather and one bit
  test.  Its bytes are 1 KiB per occupied block plus 4 B per block of the
  span: cheap when keys crowd into few blocks, but they grow with the
  spread of the keys, up to ``n²/8192`` slots, as much as with their count.
* :class:`HashedKeyTable` stores the keys bucket after bucket, like a CSR
  over ``2**b ≥ m`` hash buckets: 8 B per key plus 4 B per bucket, so at
  most 16 B per key whatever their spread.  A probe is one hash, two
  directory gathers and one key compare, then a short loop over the few
  queries whose bucket holds more than one key.

:func:`membership_probe` keeps the bitmap while its bytes are at most
``BITMAP_TABLE_RATIO`` times the table's and builds the table otherwise, so
either choice holds O(m) bytes.  Dense inputs (lastfm, pokec up to 0.02)
keep the bitmap: a chunk's queries share their first endpoints and so
their blocks, while hashing scatters them.  Sparse inputs get the table.
The release path's sampler also leans on the bitmap at pokec-0.01: the
census's 3.7 MiB bitmap, allocated and freed, raises glibc's adaptive mmap
threshold for the whole process, which keeps the Chung-Lu sampler's
batched temporaries on the heap.  With the table instead, an FCL sample
there faulted in 2 412 fresh pages, against none with the bitmap or after
one 8 MiB allocate-and-free.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


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

#: The bitmap is built while its bytes are at most this many times the
#: hashed table's.  Measured ratios: petster 2.4, lastfm 2.5, pokec-0.004
#: 3.7, pokec-0.01 7.0, epinions-0.2 9.6, pokec-0.02 12.0, pokec-0.05 20.9,
#: pokec-0.1 28.5, pokec-1.0 about 59.  In 40 alternating runs on 2 cores,
#: the table's totals scan took 1.04 times the bitmap's at pokec-0.01, 1.03
#: at pokec-0.02 and 0.96 at pokec-0.05 (median of the per-run ratios).
BITMAP_TABLE_RATIO = 16

#: Fibonacci hashing multiplier, ``2**64`` over the golden ratio (odd).
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


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
        """Index ``sorted_keys``; ``block_ids`` are their blocks, sorted and
        unique."""
        self._block_ids = block_ids
        self._bits = np.zeros(block_ids.size * BLOCK_BYTES, dtype=np.uint8)
        self._slots = _slot_table(block_ids)
        if block_ids.size == 0:
            return
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


def _bucket_bits(num_keys: int) -> int:
    """``b = ⌈log2 m⌉``, at least 1: ``2**b ≥ m`` buckets, load at most 1."""
    return max(1, (num_keys - 1).bit_length())


class HashedKeyTable:
    """Static hash table over a non-empty set of non-negative int64 keys.

    Key ``k`` falls in bucket ``(k · 0x9E3779B97F4A7C15 mod 2**64) >> (64 −
    b)`` of ``2**b`` (Fibonacci hashing).  The keys are stored bucket after
    bucket, and the int32 directory ``starts[h]`` is the first slot of
    bucket ``h``, so bucket ``h`` is ``keys[starts[h]:starts[h + 1]]``.
    """

    __slots__ = ("_keys", "_shift", "_starts")

    @staticmethod
    def footprint(num_keys: int) -> int:
        """Bytes of the table over ``num_keys`` keys: keys plus directory."""
        return 8 * (num_keys + 1) + 4 * ((1 << _bucket_bits(num_keys)) + 1)

    def __init__(self, keys: np.ndarray) -> None:
        num_keys = keys.size
        bits = _bucket_bits(num_keys)
        self._shift = np.uint64(64 - bits)
        buckets = self._buckets(keys).astype(np.int32)
        self._starts = np.zeros((1 << bits) + 1, dtype=np.int32)
        np.cumsum(np.bincount(buckets, minlength=1 << bits),
                  out=self._starts[1:])
        order = np.argsort(buckets)
        del buckets
        self._keys = np.empty(num_keys + 1, dtype=np.int64)
        np.take(keys, order, out=self._keys[:num_keys])
        # The slot past the end repeats the first key.  Only a query whose
        # bucket comes after every occupied one reads it, and that query
        # cannot equal a key from the first occupied bucket.
        self._keys[num_keys] = self._keys[0]

    def _buckets(self, keys: np.ndarray) -> np.ndarray:
        hashed = keys.view(np.uint64) * _HASH_MULTIPLIER
        hashed >>= self._shift
        # Signed bucket ids index without a cast (4% of a pokec-0.1 scan).
        return hashed.view(np.int64)

    def contains(self, queries: np.ndarray) -> np.ndarray:
        """Boolean mask: which ``queries`` are members of the key set."""
        queries = np.asarray(queries, dtype=np.int64)
        buckets = self._buckets(queries)
        slots = self._starts[buckets]
        # A bucket's first slot holds either one of its keys or the first
        # key of a later bucket, which cannot equal the query.
        hits = self._keys[slots] == queries
        sizes = self._starts[1:][buckets] - slots
        pending = np.flatnonzero((sizes > 1) & ~hits)
        step = 1
        while pending.size:
            found = self._keys[slots[pending] + step] == queries[pending]
            hits[pending] = found
            step += 1
            pending = pending[~found & (sizes[pending] > step)]
        return hits


def membership_probe(sorted_keys: np.ndarray
                     ) -> Callable[[np.ndarray], np.ndarray]:
    """Membership test for a *static* sorted array of non-negative keys.

    Returns a callable ``probe(queries) -> bool mask``: the
    :class:`PartitionedKeyBitmap` while its bytes are at most
    ``BITMAP_TABLE_RATIO`` times the :class:`HashedKeyTable`'s, the table
    otherwise.  The choice depends only on the keys' bytes per key.
    """
    sorted_keys = np.asarray(sorted_keys, dtype=np.int64)
    block_ids = _sorted_unique(sorted_keys >> BLOCK_BITS)
    if _footprint(block_ids) <= BITMAP_TABLE_RATIO * HashedKeyTable.footprint(
            sorted_keys.size):
        return PartitionedKeyBitmap(sorted_keys, block_ids).contains
    # Up to one block id per key: free them before the table is built.
    del block_ids
    return HashedKeyTable(sorted_keys).contains
