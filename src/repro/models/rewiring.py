"""Shared rewiring machinery: sorted adjacency, CSR snapshots, speculation.

The rewiring loops in this package run on two structures:

* :class:`_SortedAdjacency` — mutable sorted neighbour rows.  TriCycLe's
  exact loop (:meth:`repro.models.tricycle.TriCycLeModel._rewire_exact`)
  picks uniform neighbours by index arithmetic on the rows, and probes and
  counts on set mirrors of them, one proposal at a time; TCL's refinement
  loop walks the rows;
* :class:`_Snapshot` — an immutable CSR image whose directed edge keys
  ``owner * n + neighbour`` are globally sorted; snapshots are *folded
  forward* through a delta overlay with a sort-free vectorized merge.  Only
  the speculative engine below uses them.

The exact loop evaluates no proposal against a snapshot.  Nearly every
TriCycLe proposal is viable (13.6k of 14.3k per generation at pokec-0.01),
and accepted swaps dirty the hub rows so fast that about 80% of first hops
and 92% of second hops would have to be re-derived live, so vectorized
proposal blocks cost more than they save under the exact contract.

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
   the sets are disjoint), the round's triangle delta is a pure function of
   the old snapshot and the toggles.  Step 3's counts against the old
   snapshot are its single-toggle terms, and one wedge-pair enumeration
   over the round's toggles adds the terms for triangles containing two or
   three toggled edges.

The round-delta accounting is order-independent, so ``tau`` is exact at
every round boundary (a stale running estimate places the triangle-target
stop *inside* a round).  Only the per-proposal *verdicts* (and the walks
they ride on) consult stale structure — the accepted distributional
deviation, pinned by the closeness suites.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from itertools import chain
from typing import Deque, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.graphs.attributed import AttributedGraph
from repro.graphs.dtypes import pack_edge_keys
from repro.graphs.statistics import batched_common_neighbours
from repro.models.base import EdgeAcceptance
from repro.utils.arrays import directed_keys_to_csr, fold_sorted_keys
from repro.utils.sampling import WeightedSampler

Edge = Tuple[int, int]

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
    """Mutable adjacency rows kept sorted.

    Seeded from the graph's CSR view (whose rows are sorted), and kept
    sorted through the rewiring loops' mutations with ``bisect`` insertions
    and deletions — O(degree) C-level memmoves.  Sorted rows buy two things:

    * uniform neighbour picks are plain index arithmetic on pre-drawn
      uniforms, shared verbatim by the exact loop and the per-proposal
      reference in :mod:`repro.testing.reference` (bit-identity);
    * the rows concatenate into directed keys that are already globally
      sorted (:meth:`directed_keys`) — no argsort pass.
    """

    __slots__ = ("lists",)

    def __init__(self, graph: AttributedGraph) -> None:
        indptr, indices = graph.csr()
        flat = indices.tolist()
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

    Replicates the sorted-row pick arithmetic of the exact loop
    (:func:`repro.testing.reference.pick` and
    :func:`repro.testing.reference.pick_excluding`) exactly.  Returns
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
    # as the exact loop computes it.
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

    # Hop two skips vi's row position: vi is always a member of Γ(vk)
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
                 block_size: int = _SPECULATION_BLOCK) -> None:
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
        pure function of the old snapshot and the toggle sets.  The verdict
        kernels' stale counts are its single-toggle terms, so restoring the
        exact count costs only :meth:`_signed_round_delta`'s wedge-pair
        enumeration over the round's toggles — no extra common-neighbour
        kernel at all.
        """
        n = self._n
        self._swapped = True
        added_keys = added[:, 0] * n + added[:, 1]
        removed_keys = removed[:, 0] * n + removed[:, 1]
        self.snapshot = snapshot.folded(set(added_keys.tolist()),
                                        set(removed_keys.tolist()))
        self.stats["folds"] += 1
        # Replace the stale running estimate with the exact delta.
        self.tau = tau_before + int(gained_stale.sum()) \
            - int(lost_stale.sum()) \
            + self._signed_round_delta(added, removed, snapshot)

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
