"""Shared rewiring machinery: sorted adjacency, CSR snapshots, proposal blocks.

Every rewiring loop in this package (TriCycLe's exact batched engine, TCL's
refinement loop, and the speculative distributional engine) runs on the same
three structures:

* :class:`_SortedAdjacency` — mutable sorted neighbour rows with set
  mirrors; uniform neighbour picks are index arithmetic, shared verbatim by
  the batched proposal path and the per-proposal reference loop in
  :mod:`repro.testing.reference` (bit-identity);
* :class:`_Snapshot` — an immutable CSR image whose directed edge keys
  ``owner * n + neighbour`` are globally sorted; snapshots are *folded
  forward* through a delta overlay with a sort-free vectorized merge;
* :class:`_ProposalBlock` — one window of friend-of-a-friend proposals
  evaluated vectorized against a snapshot, with an O(1)-per-swap delta
  overlay (the exact batched engine's workhorse).

Speculative block rewiring (``equivalence="distributional"``)
-------------------------------------------------------------
:class:`SpeculativeRewiring` trades bit-identity with the scalar swap
sequence for throughput, under the same *distributional* equivalence
contract the orphan repair's vectorized engine established: per-seed
determinism (at a fixed block size), identical exact invariants (edge
count, triangle-target convergence), and closeness of the degree-sequence
and Θ'_F distributions (pinned by ``tests/models/test_tricycle_speculative``).

One round of the engine:

1. draw a block of K proposals against one frozen :class:`_Snapshot`;
2. evaluate every walk vectorized (:func:`evaluate_walks`), filter to the
   viable ones, and pair them positionally with popped oldest edges — the
   pairing is faithful because the exact loop pops exactly one oldest edge
   per consulted viable proposal, accept or reject;
3. compute ``cn_old`` for every popped edge and ``cn_new`` for every
   proposed edge with one batched common-neighbour kernel pass each
   (:func:`repro.graphs.statistics.batched_common_neighbours`), skipping
   proposals whose pessimistic bound ``min(deg u, deg v) < cn_old`` proves
   rejection without probing a single row;
4. apply the verdicts in one in-order O(1)-per-proposal scan: accepts and
   rejects follow the snapshot counts directly (per-proposal staleness is
   the accepted distributional deviation — on hub-dominated graphs nearly
   every proposal shares a node with an earlier commit, so any scheme that
   re-resolves or requeues conflicts serializes the whole round); the only
   rollbacks are proposals whose proposed edge became live mid-round
   (their pops return to the queue front unconsumed) and the tail behind
   the triangle-target stop;
5. fold the snapshot forward and restore ``tau`` to the *exact* triangle
   count of the new edge set: with the round's cancellation guarantees (an
   added edge is never in the old snapshot, a removed edge always is, and
   the sets are disjoint), the gained triangles are exactly the
   new-snapshot triangles containing an added edge and the lost ones the
   old-snapshot triangles containing a removed edge — one batched kernel
   pass per side, plus an inclusion–exclusion correction for triangles
   containing two or three toggled edges.  The same pieces feed an
   attached :class:`~repro.graphs.accel.MetricsAccelerator` in one batch.

The round-delta accounting is order-independent, so ``tau`` is exact at
every round boundary (a stale running estimate places the triangle-target
stop *inside* a round) and the accelerator's maintained tiers survive the
final wholesale adoption.  Only the per-proposal *verdicts* (and the walks
they ride on) consult stale structure — the accepted distributional
deviation, pinned by the closeness suites.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.graphs.attributed import AttributedGraph
from repro.graphs.statistics import batched_common_neighbours
from repro.models.base import EdgeAcceptance
from repro.utils.arrays import (
    directed_keys_to_csr,
    fold_sorted_keys,
    sorted_intersect,
)
from repro.utils.sampling import WeightedSampler

Edge = Tuple[int, int]

#: Proposals evaluated eagerly per snapshot window — also the snapshot
#: refresh cadence: each window boundary folds the accumulated overlay
#: forward.  (A stale-consult-triggered mid-window refresh was measured and
#: rejected: at the accept-dominated bench tiers the O(m) folds cost more
#: than the scalar fallbacks they avoid.)
_EVAL_WINDOW = 16384

#: Default speculation block budget for the distributional engine — the
#: *ceiling* on the round capacity (the floor of the edge-count clamp).
#: The block size trades verdict staleness against per-round fixed costs
#: (the O(m) fold and the kernel call overheads); 4096 won the sweep at the
#: epinions bench tier and small graphs are clamped well below it anyway.
_SPECULATION_BLOCK = 4096

#: Floor of the edge-count-scaled round capacity — below this the
#: vectorized passes cost more than the scalar loop saves.
_MIN_ROUND = 64


class _SortedAdjacency:
    """Mutable adjacency rows kept sorted, with set mirrors.

    Seeded from the graph's CSR view (whose rows are sorted), and kept
    sorted through the rewiring loop's mutations with ``bisect`` insertions
    and deletions — O(degree) C-level memmoves.  Sorted rows buy two things:

    * uniform neighbour picks are plain index arithmetic, shared verbatim by
      the sequential and batched proposal paths (bit-identity);
    * the rows concatenate into a CSR snapshot whose directed keys are
      already globally sorted — no argsort pass.

    The lazily-built set mirrors give the batched engine O(1) membership
    probes and O(min d) common-neighbour counts without any graph access.
    """

    __slots__ = ("lists", "sets")

    def __init__(self, graph: AttributedGraph) -> None:
        indptr, indices = graph.csr()
        flat = indices.tolist()
        bounds = indptr.tolist()
        self.lists: List[List[int]] = [
            flat[bounds[v]:bounds[v + 1]] for v in range(graph.num_nodes)
        ]
        self.sets: Optional[List[Set[int]]] = None

    def ensure_sets(self) -> None:
        """Build the set mirrors (the batched engine's probe structure)."""
        if self.sets is None:
            self.sets = [set(row) for row in self.lists]

    def add(self, u: int, v: int) -> None:
        insort(self.lists[u], v)
        insort(self.lists[v], u)
        if self.sets is not None:
            self.sets[u].add(v)
            self.sets[v].add(u)

    def remove(self, u: int, v: int) -> None:
        row = self.lists[u]
        del row[bisect_left(row, v)]
        row = self.lists[v]
        del row[bisect_left(row, u)]
        if self.sets is not None:
            self.sets[u].discard(v)
            self.sets[v].discard(u)

    def has(self, u: int, v: int) -> bool:
        """Membership probe against the set mirror (O(1))."""
        return v in self.sets[u]

    def count_common(self, u: int, v: int) -> int:
        """``|Γ(u) ∩ Γ(v)|`` via the set mirrors."""
        a, b = self.sets[u], self.sets[v]
        if len(a) > len(b):
            a, b = b, a
        return len(a & b)

    def pick(self, v: int, unit: float) -> Optional[int]:
        """Uniform neighbour of ``v`` driven by a pre-drawn unit uniform."""
        row = self.lists[v]
        if not row:
            return None
        return row[min(int(unit * len(row)), len(row) - 1)]

    def pick_excluding(self, v: int, excluded: int, unit: float
                       ) -> Optional[int]:
        """Uniform element of ``Γ(v) \\ {excluded}`` in O(log d).

        Skips the excluded element by index arithmetic instead of rejection,
        so the draw stays exactly uniform over the remaining neighbours.
        """
        row = self.lists[v]
        size = len(row)
        position = bisect_left(row, excluded)
        if position >= size or row[position] != excluded:
            if size == 0:
                return None
            return row[min(int(unit * size), size - 1)]
        if size == 1:
            return None
        index = min(int(unit * (size - 1)), size - 2)
        if index >= position:
            index += 1
        return row[index]


class _Snapshot:
    """An immutable CSR image of the rewiring structure.

    ``keys`` holds the directed edge keys ``owner * n + neighbour`` in
    globally sorted order; ``flat``/``indptr``/``lengths`` are the matching
    CSR arrays.  Snapshots are built once from the graph and then *folded
    forward* through a block's delta overlay — a sort-free vectorized merge
    — so no Python-level row flattening ever happens inside the loop.
    """

    __slots__ = ("n", "indptr", "flat", "lengths", "keys")

    def __init__(self, n: int, indptr: np.ndarray, flat: np.ndarray,
                 lengths: np.ndarray, keys: np.ndarray) -> None:
        self.n = n
        self.indptr = indptr
        self.flat = flat
        self.lengths = lengths
        self.keys = keys

    @classmethod
    def from_graph(cls, graph: AttributedGraph) -> "_Snapshot":
        # The graph's CSR arrays carry the narrow storage-ladder dtype;
        # ``lengths`` is widened once so the engine's signed arithmetic
        # (degree-minus-one walks, degree deltas) can never wrap.
        indptr, flat = graph.csr()
        n = graph.num_nodes
        lengths = np.diff(np.asarray(indptr, dtype=np.int64))
        keys = np.repeat(np.arange(n, dtype=np.int64), lengths) * n + flat
        return cls(n, indptr, flat, lengths, keys)

    @classmethod
    def from_directed_keys(cls, n: int, keys: np.ndarray) -> "_Snapshot":
        indptr, flat = directed_keys_to_csr(n, keys)
        return cls(n, indptr, flat,
                   np.diff(np.asarray(indptr, dtype=np.int64)), keys)

    def folded(self, added_canonical: Set[int], removed_canonical: Set[int]
               ) -> "_Snapshot":
        """Fold a canonical-key overlay into a fresh snapshot (O(m + δ))."""
        if not added_canonical and not removed_canonical:
            return self
        n = self.n

        def directed(canonical: Set[int]) -> np.ndarray:
            keys = np.fromiter(canonical, dtype=np.int64, count=len(canonical))
            both = np.concatenate((keys, (keys % n) * n + keys // n))
            both.sort()
            return both

        return _Snapshot.from_directed_keys(n, fold_sorted_keys(
            self.keys, directed(added_canonical), directed(removed_canonical)
        ))


def evaluate_walks(snapshot: _Snapshot, vi: np.ndarray, unit_one: np.ndarray,
                   unit_two: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized friend-of-a-friend walks against a frozen snapshot.

    Replicates :meth:`_SortedAdjacency.pick` /
    :meth:`_SortedAdjacency.pick_excluding` index arithmetic exactly
    (bit-identity of the exact batched engine rests on this).  Returns
    ``(vk, vj, has_edge)``: the hop endpoints with ``-1`` marking dead walks
    (no neighbour, or ``Γ(vk) \\ {vi}`` empty), and the snapshot adjacency
    probe for the surviving ``{vi, vj}`` pairs.
    """
    n = snapshot.n
    indptr, flat = snapshot.indptr, snapshot.flat
    lengths, sorted_keys = snapshot.lengths, snapshot.keys
    size = int(vi.size)
    total = int(flat.size)
    vk_out = np.full(size, -1, dtype=np.int64)
    vj_out = np.full(size, -1, dtype=np.int64)
    if total == 0 or size == 0:
        return vk_out, vj_out, np.zeros(size, dtype=bool)

    # Hop one: vk = Γ(vi)[min(int(u1 · |Γ(vi)|), |Γ(vi)| − 1)], exactly
    # as _SortedAdjacency.pick computes it.
    deg_vi = lengths[vi]
    reachable = deg_vi > 0
    hop_one = np.minimum((unit_one * deg_vi).astype(np.int64), deg_vi - 1)
    # Unreachable rows may sit past the last flat entry (indptr[vi] ==
    # total), so the gather index must be masked, not just the result.
    # The gathered ids are widened before the key packing below — ``flat``
    # carries the narrow storage dtype.
    vk = np.asarray(
        flat[np.where(reachable, indptr[vi] + hop_one, 0)], dtype=np.int64
    )
    vk_out[reachable] = vk[reachable]

    # Hop two replicates pick_excluding: vi is always a member of Γ(vk)
    # on the snapshot (symmetry), and its position inside the sorted row
    # is its global key rank minus the row start.
    position = np.searchsorted(sorted_keys, vk * n + vi) - indptr[vk]
    size_k = lengths[vk]
    valid = reachable & (size_k > 1)
    hop_two = np.minimum(
        (unit_two * (size_k - 1)).astype(np.int64),
        np.maximum(size_k - 2, 0),
    )
    hop_two = hop_two + (hop_two >= position)
    vj = np.asarray(
        flat[np.where(valid, indptr[vk] + hop_two, 0)], dtype=np.int64
    )
    vj_out[valid] = vj[valid]

    # Adjacency probe for the surviving pairs, against the sorted
    # snapshot keys.
    pair_keys = vi * n + vj
    probe = np.minimum(np.searchsorted(sorted_keys, pair_keys), total - 1)
    has_edge = valid & (sorted_keys[probe] == pair_keys)
    return vk_out, vj_out, has_edge


class _ProposalBlock:
    """One window of rewiring proposals with an incrementally patched snapshot.

    Construction evaluates walk endpoints and adjacency probes for the whole
    window vectorized against an immutable :class:`_Snapshot`
    (:func:`evaluate_walks`); common-neighbour counts come from vectorized
    merges of the snapshot rows (:meth:`pair_cn`).  Accepted swaps are
    **patched in as a delta overlay** (O(1) per swap):

    * ``mutated`` — nodes whose adjacency rows changed since the snapshot;
      a precomputed answer is consulted only while its row dependencies
      (``vi`` for hop one, ``vk`` for hop two, ``{vi, vj}`` for the count)
      are untouched, which makes it exactly equal to the live value;
    * added/removed canonical edge keys — an O(1) correction that keeps the
      adjacency *probe* exact for every proposal, mutated rows or not, and
      the raw material for folding the snapshot forward.

    :meth:`next_consult` skips provably non-viable proposals in bulk: the
    next snapshot-viable candidate bounds a skip range, and the range is
    verified against the mutated-node mask with three gathers.  Skip ranges
    are disjoint across the block's lifetime, so the verification totals
    O(block).

    The exactness argument is the same as the original dirty-set design —
    every answer depends only on the rows of the nodes involved — but the
    overlay turns "row touched → per-proposal fallback forever" into
    "row touched → O(1) patch, everything else stays vectorized".
    """

    __slots__ = ("_n", "_size", "_vi", "_vk", "_vj", "_has_edge",
                 "_vi_list", "_vk_list", "_vj_list", "_edge_list",
                 "_candidates", "_candidate_pos", "_mut_bytes", "_mut_view",
                 "_snapshot", "num_mutated", "added", "removed")

    def __init__(self, snapshot: _Snapshot, vi_block: np.ndarray,
                 unit_block: np.ndarray) -> None:
        size = int(vi_block.size)
        self._n = snapshot.n
        self._size = size
        self._snapshot = snapshot
        self._vi = vi_block.astype(np.int64, copy=False)
        self._vk, self._vj, self._has_edge = evaluate_walks(
            snapshot, self._vi,
            unit_block[:, 0] if size else np.empty(0),
            unit_block[:, 1] if size else np.empty(0),
        )
        self._candidate_pos = 0
        # Mutated-node mask: a bytearray for ~O(50ns) scalar writes and
        # probes, with a NumPy view over the same buffer for the skip-range
        # gathers.
        self._mut_bytes = bytearray(max(snapshot.n, 1))
        self._mut_view = np.frombuffer(self._mut_bytes, dtype=np.uint8)
        self.num_mutated = 0
        self.added: Set[int] = set()
        self.removed: Set[int] = set()
        # List mirrors for the scalar consult path (a NumPy scalar unbox per
        # read would dominate the per-consult cost).
        self._vi_list = self._vi.tolist()
        self._vk_list = self._vk.tolist()
        self._vj_list = self._vj.tolist()
        self._edge_list = self._has_edge.tolist()
        # Static candidates: proposals viable *on the snapshot* — the second
        # hop exists and the proposed edge is absent (pick_excluding
        # guarantees vj != vi).  Proposals whose verdict could have flipped
        # since necessarily depend on a mutated row and are caught by the
        # skip-range verification in next_consult.
        self._candidates: List[int] = np.flatnonzero(
            (self._vj >= 0) & ~self._has_edge
        ).tolist()

    @property
    def size(self) -> int:
        """Number of proposals this window evaluates."""
        return self._size

    def folded_snapshot(self) -> _Snapshot:
        """The snapshot with this window's overlay folded in (current state)."""
        return self._snapshot.folded(self.added, self.removed)

    # ------------------------------------------------------------------
    # Bulk skipping and incremental maintenance
    # ------------------------------------------------------------------
    def next_consult(self, cursor: int) -> int:
        """First index ≥ ``cursor`` that needs Python attention (or size).

        That is the next *static* candidate — viable on the snapshot — or,
        before it, the first skipped proposal whose row dependencies touch a
        mutated node (its precomputed no-op verdict can no longer be
        trusted).
        """
        candidates = self._candidates
        position = self._candidate_pos
        while position < len(candidates) and candidates[position] < cursor:
            position += 1
        self._candidate_pos = position
        stop = candidates[position] if position < len(candidates) else self._size
        if stop > cursor and self.num_mutated:
            # (_vk/_vj hold -1 for dead proposals; index -1 aliases node
            # n-1, which can only spuriously *consult* a proposal — the
            # consult path re-derives exact answers either way.)
            if stop - cursor <= 8:
                mask = self._mut_bytes
                vi, vk, vj = self._vi_list, self._vk_list, self._vj_list
                for probe in range(cursor, stop):
                    if mask[vi[probe]] or mask[vk[probe]] or mask[vj[probe]]:
                        return probe
            else:
                # Geometric chunks: the scan stops at the first hit, so a
                # long candidate gap dense with mutated-row proposals costs
                # O(first-hit distance) per consult instead of re-gathering
                # the whole remaining gap every time.
                mutated = self._mut_view
                chunk = 64
                start = cursor
                while start < stop:
                    end = min(start + chunk, stop)
                    hit = mutated[self._vi[start:end]]
                    hit |= mutated[self._vk[start:end]]
                    hit |= mutated[self._vj[start:end]]
                    offset = int(np.argmax(hit))
                    if hit[offset]:
                        return start + offset
                    start = end
                    chunk *= 4
        return stop

    def is_mutated(self, node: int) -> bool:
        """Whether ``node``'s row changed since this window's snapshot."""
        return self._mut_bytes[node] != 0

    def note_swap(self, removed_edge: Edge, added_edge: Optional[Edge]) -> None:
        """Patch one accepted swap into the snapshot overlay — O(1).

        Later proposals depending on a mutated row are re-armed lazily by
        :meth:`next_consult`; everything else keeps its (still exact)
        precomputed answers.
        """
        n = self._n
        mask = self._mut_bytes
        vq, vr = removed_edge
        key = vq * n + vr if vq < vr else vr * n + vq
        if key in self.added:
            self.added.discard(key)
        else:
            self.removed.add(key)
        mask[vq] = 1
        mask[vr] = 1
        if added_edge is not None:
            va, vb = added_edge
            akey = va * n + vb if va < vb else vb * n + va
            if akey in self.removed:
                self.removed.discard(akey)
            else:
                self.added.add(akey)
            mask[va] = 1
            mask[vb] = 1
        self.num_mutated += 1

    def edge_exists(self, index: int, vi: int, vj: int) -> bool:
        """Current existence of edge ``{vi, vj}`` for an unmutated proposal.

        The snapshot probe corrected by the O(1) overlay of edges added or
        removed since — exact for *every* proposal, mutated rows or not.
        """
        key = vi * self._n + vj if vi < vj else vj * self._n + vi
        if key in self.added:
            return True
        if key in self.removed:
            return False
        return self._edge_list[index]

    def pair_cn(self, u: int, v: int) -> int:
        """Snapshot common-neighbour count of an arbitrary pair.

        Exact for the live structure while neither row is mutated.  A
        vectorized merge of the two sorted snapshot rows — the win over the
        set intersection grows with the row sizes, so callers gate it on
        :meth:`row_length`.
        """
        snapshot = self._snapshot
        indptr, flat = snapshot.indptr, snapshot.flat
        return int(sorted_intersect(
            flat[indptr[u]:indptr[u + 1]],
            flat[indptr[v]:indptr[v + 1]],
        ).size)

    def row_length(self, node: int) -> int:
        """Snapshot degree of ``node``."""
        return int(self._snapshot.lengths[node])

    # ------------------------------------------------------------------
    # Precomputed answers
    # ------------------------------------------------------------------
    def vk(self, index: int) -> Optional[int]:
        """First-hop endpoint of proposal ``index`` (``None``: no neighbour)."""
        value = self._vk_list[index]
        return None if value < 0 else value

    def vj(self, index: int) -> Optional[int]:
        """Second-hop endpoint (``None``: Γ(vk) \\ {vi} was empty)."""
        value = self._vj_list[index]
        return None if value < 0 else value


class SpeculativeRewiring:
    """Block-speculative TriCycLe rewiring under the distributional contract.

    See the module docstring for the round structure.  All per-proposal work
    is either vectorized (walks, viability, common-neighbour counts) or O(1)
    bookkeeping (pops, live-set toggles); there is no scalar fallback path.
    Verdicts are computed against the round's frozen snapshot — the accepted
    distributional deviation — while :attr:`tau` is restored to the *exact*
    triangle count of the evolving edge set at every round boundary through
    an order-independent inclusion–exclusion over the round's toggles.

    The engine owns the structural state for the duration of :meth:`run` —
    the graph object is untouched until the final vectorized adoption — and
    exposes its telemetry through :attr:`stats` plus the invariant-bearing
    internals (:attr:`snapshot`, :attr:`live_keys`, :attr:`tau`) that the
    property suite checks between rounds.
    """

    def __init__(self, graph: AttributedGraph, edge_age: Deque[Edge],
                 tau: int, target: int, max_iterations: int,
                 sampler: WeightedSampler, generator: np.random.Generator,
                 acceptance: Optional[EdgeAcceptance],
                 block_size: int = _SPECULATION_BLOCK,
                 accel=None) -> None:
        self._graph = graph
        self._edge_age = edge_age
        self.tau = int(tau)
        self._target = int(target)
        self._max_iterations = int(max_iterations)
        self._sampler = sampler
        self._generator = generator
        self._acceptance = acceptance
        self._block_size = max(1, int(block_size))
        # Staleness bound: a round much larger than a small graph's
        # convergence horizon only buys verdict staleness, so the capacity
        # is the block budget clamped to an edge-count fraction.
        self._capacity = max(
            _MIN_ROUND, min(self._block_size, graph.num_edges // 8)
        )
        self._accel = accel
        n = graph.num_nodes
        self._n = n
        self.snapshot = _Snapshot.from_graph(graph)
        keys = self.snapshot.keys
        #: Canonical (u < v) keys of every live edge — the O(1) probe behind
        #: mid-round duplicate-edge detection and the fold overlays.
        self.live_keys: Set[int] = set(
            keys[(keys // n) < (keys % n)].tolist()
        )
        self._swapped = False
        self.stats: Dict[str, int] = {
            "rounds": 0,
            "proposals": 0,
            "viable": 0,
            "acceptance_filtered": 0,
            "paired": 0,
            "pruned": 0,
            "accepted": 0,
            "rejected": 0,
            "conflicts": 0,
            "rollbacks": 0,
            "folds": 0,
        }

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Rewire until the triangle target or the iteration budget is hit."""
        graph = self._graph
        if graph.num_edges == 0 or self.tau >= self._target:
            return
        iterations = 0
        while self.tau < self._target and iterations < self._max_iterations:
            consumed, dried = self._run_round(self._max_iterations - iterations)
            iterations += max(consumed, 1)
            if dried:
                break
        if self._swapped:
            if self._accel is not None:
                self._accel.expect_maintained_adoption()
            graph._adopt_directed_keys(self.snapshot.keys, graph.num_edges)

    # ------------------------------------------------------------------
    # One speculative round
    # ------------------------------------------------------------------
    def _run_round(self, remaining: int) -> Tuple[int, bool]:
        """Evaluate, pair, commit, and fold one proposal block.

        Returns ``(consumed, dried)``: how many proposals were consumed from
        the iteration budget, and whether the edge-age queue ran dry (which
        ends rewiring, matching the exact loop).
        """
        generator = self._generator
        n = self._n
        snapshot = self.snapshot
        stats = self.stats

        # 1. Draw the round.  The RNG consumption per round is a
        #    deterministic function of (seed, block size), which is what
        #    makes runs reproducible.
        capacity = min(self._capacity, remaining)
        vi = self._sampler.sample_many(capacity, generator) \
            .astype(np.int64, copy=False)
        units = generator.random((capacity, 2))
        round_size = int(vi.size)
        stats["rounds"] += 1
        stats["proposals"] += round_size

        # 2. Vectorized walk evaluation and viability against the frozen
        #    snapshot; the attribute acceptance filter consumes one uniform
        #    per viable proposal, like the exact loop.
        _vk, vj, has_edge = evaluate_walks(snapshot, vi, units[:, 0],
                                           units[:, 1])
        viable = np.flatnonzero((vj >= 0) & ~has_edge)
        stats["viable"] += int(viable.size)
        if self._acceptance is not None and viable.size:
            probabilities = self._acceptance.pair_probabilities(
                vi[viable], vj[viable]
            )
            draws = generator.random(viable.size)
            passed = draws <= probabilities
            stats["acceptance_filtered"] += int(viable.size - passed.sum())
            paired_pos = viable[passed]
        else:
            paired_pos = viable

        # 3. Positional pairing with the oldest live edges: every consulted
        #    viable proposal pops exactly one oldest edge in the exact loop
        #    (rejects re-append it), so pairing up front is faithful.  The
        #    queue holds exactly the live edges at every round boundary
        #    (swaps preserve the edge count; rejects and rollbacks restore
        #    their pops) — an invariant the property suite pins — so the
        #    pops need no per-edge liveness probe.
        edge_age = self._edge_age
        requested = int(paired_pos.size)
        pops: List[Edge] = [
            edge_age.popleft()
            for _ in range(min(requested, len(edge_age)))
        ]
        dried = len(pops) < requested
        paired = len(pops)
        paired_pos = paired_pos[:paired]
        stats["paired"] += paired
        if paired == 0:
            return round_size, dried

        # 4. Batched common-neighbour counts: cn_old for every popped edge,
        #    cn_new for every proposed pair — with the pessimistic bound
        #    min(deg vi, deg vj) < cn_old skipping provably-rejected
        #    proposals before a single row is probed.
        popped = np.fromiter(
            (node for pop in pops for node in pop),
            dtype=np.int64, count=2 * paired,
        ).reshape(paired, 2)
        vq = np.minimum(popped[:, 0], popped[:, 1])
        vr = np.maximum(popped[:, 0], popped[:, 1])
        pa = vi[paired_pos]
        pb = vj[paired_pos]
        cn_old = batched_common_neighbours(
            n, snapshot.indptr, snapshot.flat, snapshot.keys, vq, vr
        )
        pruned = np.minimum(snapshot.lengths[pa], snapshot.lengths[pb]) \
            < cn_old
        stats["pruned"] += int(pruned.sum())
        cn_new = batched_common_neighbours(
            n, snapshot.indptr, snapshot.flat, snapshot.keys, pa, pb,
            skip=pruned,
        )

        # 5. In-order commit scan with the batch verdicts, then the fold
        #    plus the exact round-delta triangle accounting.
        tau_before = self.tau
        consumed, added, removed, committed = self._commit_scan(
            paired_pos, pa, pb, vq, vr, pops, cn_old, cn_new, pruned,
            round_size,
        )
        if added.shape[0]:
            self._fold_round(snapshot, added, removed, tau_before,
                             cn_old[committed], cn_new[committed])
        return consumed, dried

    def _commit_scan(self, paired_pos: np.ndarray, pa: np.ndarray,
                     pb: np.ndarray, vq: np.ndarray, vr: np.ndarray,
                     pops: List[Edge], cn_old: np.ndarray,
                     cn_new: np.ndarray, pruned: np.ndarray,
                     round_size: int
                     ) -> Tuple[int, np.ndarray, np.ndarray, np.ndarray]:
        """Apply the batch verdicts in serialized order — without a loop.

        The serialization a scalar scan would produce is reconstructed
        array-wise: the first verdict-accepted proposal of each proposed
        key commits; any later proposal of the same key is a mid-round
        collision and rolls back (its pop returns to the queue front
        unconsumed); the triangle-target stop sits at the first proposal
        after the stale running estimate crosses the target, and everything
        behind it rolls back.  Rejects re-append their pop to the queue
        back in scan order, interleaved with the commits' new edges.  The
        running estimate exists only to place the stop inside the round;
        the exact count is restored at the fold.
        """
        n = self._n
        target = self._target
        tau_before = self.tau
        paired = len(pops)
        aa = np.minimum(pa, pb)
        bb = np.maximum(pa, pb)
        ab_keys = aa * n + bb
        verdicts = ~pruned & (cn_new >= cn_old)
        candidates = np.flatnonzero(verdicts)

        # First accepted proposal per proposed key commits (stable sort
        # keeps scan order within each key run).
        order = np.argsort(ab_keys[candidates], kind="stable")
        sorted_keys = ab_keys[candidates][order]
        sorted_idx = candidates[order]
        firsts = np.ones(sorted_idx.size, dtype=bool)
        firsts[1:] = sorted_keys[1:] != sorted_keys[:-1]
        provisional = np.sort(sorted_idx[firsts])

        # Triangle-target stop placement on the stale running estimate.
        deltas = (cn_new - cn_old)[provisional]
        running = tau_before + np.cumsum(deltas)
        crossed = np.flatnonzero(running >= target)
        stop_proposal: Optional[int] = None
        committed = provisional
        est_tau = int(running[-1]) if provisional.size else tau_before
        if crossed.size:
            cross = int(crossed[0])
            committed = provisional[:cross + 1]
            est_tau = int(running[cross])
            next_proposal = int(provisional[cross]) + 1
            if next_proposal < paired:
                stop_proposal = next_proposal
        horizon = stop_proposal if stop_proposal is not None else paired

        # Mid-round collisions: proposals (whatever their verdict) whose
        # proposed key matches an earlier commit roll back.
        conflict = np.zeros(horizon, dtype=bool)
        if committed.size and horizon:
            comm_order = np.argsort(ab_keys[committed])
            comm_keys = ab_keys[committed][comm_order]
            comm_idx = committed[comm_order]
            position = np.searchsorted(comm_keys, ab_keys[:horizon])
            position[position >= comm_keys.size] = comm_keys.size - 1
            matched = comm_keys[position] == ab_keys[:horizon]
            conflict = matched & (comm_idx[position] < np.arange(horizon))
        committed_mask = np.zeros(horizon, dtype=bool)
        committed_mask[committed] = True
        reject_mask = ~verdicts[:horizon] & ~conflict

        # Queue appends in scan order: commits push their new edge, rejects
        # re-append their pop.
        keep = committed_mask | reject_mask
        out_a = np.where(committed_mask, aa[:horizon], vq[:horizon])[keep]
        out_b = np.where(committed_mask, bb[:horizon], vr[:horizon])[keep]
        edge_age = self._edge_age
        edge_age.extend(zip(out_a.tolist(), out_b.tolist()))

        # Rolled-back pops return to the queue front in their original age
        # order — they are still the oldest live edges.
        restore = [pops[i] for i in np.flatnonzero(conflict).tolist()]
        restore.extend(pops[horizon:])
        if restore:
            edge_age.extendleft(reversed(restore))

        removed = np.stack((vq[committed], vr[committed]), axis=1)
        added = np.stack((aa[committed], bb[committed]), axis=1)
        live = self.live_keys
        live.difference_update(
            (removed[:, 0] * n + removed[:, 1]).tolist()
        )
        live.update(ab_keys[committed].tolist())

        stats = self.stats
        stats["accepted"] += int(committed.size)
        stats["rejected"] += int(reject_mask.sum())
        stats["conflicts"] += int(conflict.sum())
        stats["rollbacks"] += len(restore)
        # Stale running estimate — the fold overwrites it with the exact
        # count (a round with no commits leaves it untouched: the estimate
        # only moves on accepts).
        self.tau = est_tau
        consumed = round_size
        if stop_proposal is not None:
            consumed = max(int(paired_pos[stop_proposal]), 1)
        return consumed, added, removed, committed

    # ------------------------------------------------------------------
    # Fold + exact round-delta accounting
    # ------------------------------------------------------------------
    def _fold_round(self, snapshot: _Snapshot, added: np.ndarray,
                    removed: np.ndarray, tau_before: int,
                    lost_stale: np.ndarray,
                    gained_stale: np.ndarray) -> None:
        """Fold the round's toggles forward and restore exactness.

        The triangle delta of a round is order-independent: with the
        cancellation guarantees (an added edge is never in the old snapshot,
        a removed edge always is, and the two sets are disjoint), it is a
        pure function of the old snapshot and the toggle sets.  The fast
        path (:meth:`_signed_round_delta`) reuses the verdict kernels'
        stale counts and pays only a wedge-pair enumeration over the
        round's toggles — no extra common-neighbour kernel at all.  When an
        attached accelerator maintains per-node triangle counts it needs
        the actual member lists (lost triangles vs the old snapshot,
        gained vs the new), so that path runs the collect-members kernels
        plus the E1-side inclusion–exclusion corrections
        (:meth:`_pair_triangles`); both paths produce the identical exact
        delta.
        """
        n = self._n
        stats = self.stats
        self._swapped = True
        added_keys = added[:, 0] * n + added[:, 1]
        removed_keys = removed[:, 0] * n + removed[:, 1]

        folded = snapshot.folded(set(added_keys.tolist()),
                                 set(removed_keys.tolist()))
        self.snapshot = folded
        stats["folds"] += 1

        accel = self._accel
        feed = accel is not None and accel.maintains_structure
        need_members = feed and accel.tracks_triangles
        if need_members:
            lost_counts, lost_members, lost_indptr = \
                batched_common_neighbours(
                    n, snapshot.indptr, snapshot.flat, snapshot.keys,
                    removed[:, 0], removed[:, 1], collect_members=True,
                )
            gained_counts, gained_members, gained_indptr = \
                batched_common_neighbours(
                    n, folded.indptr, folded.flat, folded.keys,
                    added[:, 0], added[:, 1], collect_members=True,
                )
            removed_over, removed_triples = self._pair_triangles(
                removed, snapshot, np.sort(removed_keys)
            )
            added_over, added_triples = self._pair_triangles(
                added, folded, np.sort(added_keys)
            )
            gained = int(gained_counts.sum()) - len(added_over) \
                + len(added_triples)
            lost = int(lost_counts.sum()) - len(removed_over) \
                + len(removed_triples)
            # Replace the stale running estimate with the exact delta.
            self.tau = tau_before + gained - lost
        else:
            # The verdict kernels already counted every committed edge
            # against the old snapshot — those ARE the single-toggle terms.
            self.tau = tau_before + int(gained_stale.sum()) \
                - int(lost_stale.sum()) \
                + self._signed_round_delta(added, removed, snapshot)
            empty = np.empty((0, 3), dtype=np.int64)
            removed_over = removed_triples = empty
            added_over = added_triples = empty
            lost_members = lost_indptr = None
            gained_members = gained_indptr = None
        if feed:
            self._feed_accelerator(
                snapshot, removed, added,
                lost_members, lost_indptr, gained_members, gained_indptr,
                removed_over, removed_triples, added_over, added_triples,
            )

    @staticmethod
    def _enumerate_wedges(edges: np.ndarray
                          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                     np.ndarray, np.ndarray]:
        """All unordered pairs of distinct edges sharing an endpoint.

        Fully vectorized: both orientations of every edge are grouped by
        their centre node, and the within-group pairs come from a
        repeat/offset expansion — the element at local position ``i`` of a
        ``k``-sized group opens ``k - 1 - i`` pairs, its partners being the
        elements right after it.  Returns ``(x, b, c, e1, e2)``: the shared
        endpoint, the two far endpoints, and the row indices into ``edges``
        of the two wedge legs, one entry per pair.
        """
        count = edges.shape[0]
        centers = np.concatenate((edges[:, 0], edges[:, 1]))
        partners = np.concatenate((edges[:, 1], edges[:, 0]))
        ids = np.concatenate((np.arange(count), np.arange(count)))
        order = np.argsort(centers, kind="stable")
        centers = centers[order]
        partners = partners[order]
        ids = ids[order]
        boundaries = np.flatnonzero(np.diff(centers)) + 1
        starts = np.concatenate(([0], boundaries))
        sizes = np.diff(np.concatenate((starts, [centers.size])))
        group_start = np.repeat(starts, sizes)
        local = np.arange(centers.size) - group_start
        repeats = np.repeat(sizes, sizes) - 1 - local
        total = int(repeats.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty, empty, empty
        first = np.repeat(np.arange(centers.size), repeats)
        offsets = np.arange(total) \
            - np.repeat(np.cumsum(repeats) - repeats, repeats)
        second = first + 1 + offsets
        return (centers[first], partners[first], partners[second],
                ids[first], ids[second])

    def _signed_round_delta(self, added: np.ndarray, removed: np.ndarray,
                            snapshot: _Snapshot) -> int:
        """Multi-toggle triangle terms of the round delta, vs E0 only.

        Expanding ``[e ∈ E1] = [e ∈ E0] + σ(e)`` (σ = +1 added, −1
        removed, 0 untoggled) over every node triple gives the exact
        round delta

            Δτ = Σ_t σ(t)·cn_E0(t)
               + Σ_{toggled wedges} σ(t1)·σ(t2)·[closing edge ∈ E0]
               + Σ_{toggled triples} σ(t1)·σ(t2)·σ(t3),

        where the single-toggle sum is exactly the verdict kernels' stale
        counts, already in hand.  This method returns the wedge and triple
        sums: a pair enumeration over the round's toggles plus two
        searchsorted probes — no common-neighbour kernel.  Toggled triples
        (three toggled node pairs closing a triangle, whatever their E0
        membership) are counted once each, from the canonical centre (the
        triple's minimum node).
        """
        if added.shape[0] + removed.shape[0] < 2:
            return 0
        n = self._n
        edges = np.concatenate((added, removed), axis=0)
        signs = np.concatenate((
            np.ones(added.shape[0], dtype=np.int64),
            -np.ones(removed.shape[0], dtype=np.int64),
        ))
        x, b, c, e1, e2 = self._enumerate_wedges(edges)
        if x.size == 0:
            return 0
        products = signs[e1] * signs[e2]
        third_keys = b * n + c
        keys = snapshot.keys
        positions = np.searchsorted(keys, third_keys)
        np.minimum(positions, max(keys.size - 1, 0), out=positions)
        in_e0 = (keys[positions] == third_keys) if keys.size \
            else np.zeros(third_keys.size, dtype=bool)
        pair_sum = int(products[in_e0].sum())
        # Only canonical-centre wedges (x minimal) can open a triple row, so
        # the toggled-set probe runs on a third of the pairs.
        canonical_rows = (x < b) & (x < c)
        cb = b[canonical_rows]
        cc = c[canonical_rows]
        toggled_keys = edges[:, 0] * n + edges[:, 1]
        t_order = np.argsort(toggled_keys)
        t_sorted = toggled_keys[t_order]
        canonical = np.where(cb < cc, cb * n + cc, cc * n + cb)
        pos = np.searchsorted(t_sorted, canonical)
        np.minimum(pos, t_sorted.size - 1, out=pos)
        is_third_toggled = t_sorted[pos] == canonical
        triple_sum = int(
            (products[canonical_rows][is_third_toggled]
             * signs[t_order[pos[is_third_toggled]]]).sum()
        )
        return pair_sum + triple_sum

    def _pair_triangles(self, edges: np.ndarray, snapshot: _Snapshot,
                        toggled_keys: np.ndarray
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """Triangles containing two or three of one toggle set's edges.

        Enumerates, per shared endpoint, every unordered pair of toggled
        edges and probes the closing third edge against ``snapshot``.
        Returns ``(overcounts, triples)``: the ``(t, 3)`` node arrays of
        triangles counted once per contained pair (every multi-toggle
        triangle, once per C(k, 2) pairs) and of triangles whose three
        edges are all toggled (one canonical row each — the row whose
        shared endpoint is the triangle's minimum node).  These are the
        E1-side inclusion–exclusion corrections the accelerator feed
        needs; the kernel-free tau fast path uses
        :meth:`_signed_round_delta` instead.
        """
        empty = np.empty((0, 3), dtype=np.int64)
        if edges.shape[0] < 2:
            return empty, empty
        n = self._n
        x, b, c, _, _ = self._enumerate_wedges(edges)
        if x.size == 0:
            return empty, empty
        third_keys = b * n + c
        keys = snapshot.keys
        positions = np.searchsorted(keys, third_keys)
        positions[positions >= keys.size] = keys.size - 1 if keys.size else 0
        closed = keys.size > 0
        hits = (keys[positions] == third_keys) if closed \
            else np.zeros(third_keys.size, dtype=bool)
        if not hits.any():
            return empty, empty
        x = x[hits]
        b = b[hits]
        c = c[hits]
        overcounts = np.stack((x, b, c), axis=1)
        canonical_third = np.where(b < c, b * n + c, c * n + b)
        positions = np.searchsorted(toggled_keys, canonical_third)
        positions[positions >= toggled_keys.size] = \
            toggled_keys.size - 1 if toggled_keys.size else 0
        in_toggled = toggled_keys[positions] == canonical_third \
            if toggled_keys.size else np.zeros(canonical_third.size,
                                               dtype=bool)
        triple_rows = in_toggled & (x < b) & (x < c)
        return overcounts, overcounts[triple_rows]

    # ------------------------------------------------------------------
    # Accelerator feeding
    # ------------------------------------------------------------------
    def _feed_accelerator(self, snapshot: _Snapshot, removed: np.ndarray,
                          added: np.ndarray,
                          lost_members: Optional[np.ndarray],
                          lost_indptr: Optional[np.ndarray],
                          gained_members: Optional[np.ndarray],
                          gained_indptr: Optional[np.ndarray],
                          removed_over: np.ndarray,
                          removed_triples: np.ndarray,
                          added_over: np.ndarray,
                          added_triples: np.ndarray) -> None:
        """Stream the round's committed toggles to the accelerator in bulk.

        Triangle members come from the same round-delta kernels (lost
        triangles vs the old snapshot, gained vs the new), with the
        multi-toggle triangles handed over as explicit correction rows.
        Degree transitions come from the old snapshot's lengths and the
        round's net endpoint deltas — exact even for multi-touched nodes,
        because histogram and wedge updates telescope over intermediate
        degrees.
        """
        accel = self._accel
        changed_nodes = None
        old_degrees = new_degrees = None
        if accel.tracks_degrees:
            deltas = np.zeros(self._n, dtype=np.int64)
            np.add.at(deltas, added.ravel(), 1)
            np.subtract.at(deltas, removed.ravel(), 1)
            changed_nodes = np.unique(
                np.concatenate((added.ravel(), removed.ravel()))
            )
            old_degrees = snapshot.lengths[changed_nodes].astype(np.int64)
            new_degrees = old_degrees + deltas[changed_nodes]
        accel.apply_swap_batch(
            removed, added,
            removed_members=lost_members, removed_indptr=lost_indptr,
            added_members=gained_members, added_indptr=gained_indptr,
            removed_overcounts=removed_over,
            removed_triples=removed_triples,
            added_overcounts=added_over, added_triples=added_triples,
            changed_nodes=changed_nodes, old_degrees=old_degrees,
            new_degrees=new_degrees,
        )
