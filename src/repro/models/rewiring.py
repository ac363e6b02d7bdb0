"""Sorted adjacency rows shared by the rewiring loops.

:class:`_SortedAdjacency` holds mutable sorted neighbour rows.  TriCycLe's
rewiring loop (:meth:`repro.models.tricycle.TriCycLeModel._rewire_exact`)
picks uniform neighbours by index arithmetic on the rows, and probes and
counts on set mirrors of them, one proposal at a time; TCL's refinement
loop walks the rows.

The rows hold interned node ids: one Python int object per node
(:attr:`_SortedAdjacency.ids`), shared by every row entry, and so by the
set mirrors built from the rows and the proposals read through the same
array.  That is n int objects where 2m would be made otherwise, and a set
probe for an id that is present succeeds on identity.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from itertools import chain
from typing import List, Tuple

import numpy as np

from repro.graphs.attributed import AttributedGraph
from repro.graphs.dtypes import pack_edge_keys

Edge = Tuple[int, int]


class _SortedAdjacency:
    """Mutable adjacency rows kept sorted.

    Seeded from the graph's CSR view (whose rows are sorted), and kept
    sorted through the rewiring loops' mutations with ``bisect`` insertions
    and deletions — O(degree) C-level memmoves.  Sorted rows buy two things:

    * uniform neighbour picks are plain index arithmetic on pre-drawn
      uniforms, shared verbatim by the exact loop and the per-proposal
      reference in :mod:`repro.testing.reference` (bit-identity);
    * the rows concatenate into directed keys that are already globally
      sorted (:meth:`directed_keys`) — no argsort pass.

    ``ids`` is an object array of the node ids ``0 .. n-1``; the rows are
    read through it, so every entry naming node ``v`` is the one object
    ``ids[v]``.  Read a NumPy block of node ids as ``ids[block].tolist()``
    to get the same objects.
    """

    __slots__ = ("ids", "lists")

    def __init__(self, graph: AttributedGraph) -> None:
        indptr, indices = graph.csr()
        self.ids = np.arange(graph.num_nodes).astype(object)
        flat = self.ids[indices].tolist()
        bounds = indptr.tolist()
        self.lists: List[List[int]] = [
            flat[bounds[v]:bounds[v + 1]] for v in range(graph.num_nodes)
        ]

    def add(self, u: int, v: int) -> None:
        insort(self.lists[u], v)
        insort(self.lists[v], u)

    def remove(self, u: int, v: int) -> None:
        row = self.lists[u]
        del row[bisect_left(row, v)]
        row = self.lists[v]
        del row[bisect_left(row, u)]

    def directed_keys(self) -> np.ndarray:
        """The rows as sorted directed keys ``owner * n + neighbour``."""
        rows = self.lists
        n = len(rows)
        lengths = np.fromiter(map(len, rows), dtype=np.int64, count=n)
        neighbours = np.fromiter(chain.from_iterable(rows), dtype=np.int64,
                                 count=int(lengths.sum()))
        owners = np.repeat(np.arange(n), lengths)
        return pack_edge_keys(owners, neighbours, n, dtype=np.int64)
