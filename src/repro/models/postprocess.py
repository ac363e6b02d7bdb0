"""Orphan repair post-processing (Algorithm 2).

Chung-Lu style generators leave some nodes disconnected from the main
component ("orphaned"), especially the abundant degree-one nodes of social
graphs.  Algorithm 2 repairs this: every orphaned node is detached from any
stray edges and reattached to the main component with as many edges as its
desired degree, drawing partners from the π distribution among nodes whose
desired degree is not yet met; whenever the repair would exceed the target
edge count, a random existing edge is removed.

The repair runs on a **vectorized engine**: it presamples the π attach
draws through a cursor-backed :class:`~repro.utils.sampling.PresampledStream`,
evaluates the partner filters (self, main-component membership via a
boolean node mask, desired-degree headroom via the live degree array) as
array masks per block, samples victim edges as uniform slots of an
incrementally refreshed CSR snapshot, scores them with vectorized
common-neighbour passes over the snapshot rows, and verifies speculative
removals with the budgeted numpy frontier BFS shared with
:mod:`repro.graphs.components`
(:class:`~repro.graphs.components.BudgetedReachability`) — no Python sets
anywhere on the hot path.  The original per-attempt probe loop is the
oracle in :mod:`repro.testing.reference`; the two consume the RNG
differently, so they produce different graphs for the same seed while
targeting the same distribution (pinned by the equivalence tests).

The component decomposition is computed lazily: attaching an orphan moves it
into the main component without touching the other components, so the O(n+m)
scan only reruns when an edge removal may actually have disconnected the
graph or when the current orphan worklist is exhausted.

When the requested edge budget cannot possibly yield one component
(``sum(desired) // 2 < n - 1``) the repair warns once up front, and stops
early once full passes over the orphan worklist stop shrinking it —
instead of silently churning (removing and re-adding edges, burning RNG
draws) until its bound of ``4 n`` orphan-processing rounds.
"""

from __future__ import annotations

import warnings
from typing import List, Optional, Set, Tuple

import numpy as np

from repro.graphs.attributed import AttributedGraph
from repro.graphs.components import (
    BudgetedReachability,
    _gather_frontier,
    _labels_from_csr,
    _sorted_dedupe,
)
from repro.models.base import EdgeAcceptance
from repro.utils.arrays import (
    directed_keys_to_csr,
    fold_sorted_keys,
    sorted_intersect,
    sorted_membership,
)
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.sampling import PresampledStream, WeightedSampler

#: Candidate victim edges scored per removal (the second chunk, consulted
#: only when the first contains no triangle edge, doubles the pool).
_NUM_CANDIDATES = 8

#: Edge-visit budget of the speculative-removal reachability probe.
_BFS_EDGE_BUDGET = 4096

#: Mutations (relative to the CSR snapshot) that trigger a snapshot refresh
#: in the vectorized engine.  Tighter windows keep the pre-scored victim
#: slots and triangle proofs fresh in removal-heavy phases; wider ones
#: amortize the O(n + m) fold.  Measured sweet spot at the 20k tier.
_SNAPSHOT_REFRESH = 2048

#: Worklist rebuilds without a net reduction of the orphan set before the
#: repair gives up (1 when the target is provably infeasible).
_STALL_LIMIT = 3


def _warn_infeasible(target_edges: int, num_nodes: int) -> None:
    warnings.warn(
        f"orphan repair cannot produce a connected graph: the target edge "
        f"count {target_edges} is below the spanning minimum "
        f"{num_nodes - 1} for {num_nodes} nodes; repairing best-effort and "
        f"stopping once no further orphans can be attached",
        UserWarning,
        stacklevel=3,
    )


def post_process_graph(graph: AttributedGraph, desired_degrees: np.ndarray,
                       pi: np.ndarray, rng: RngLike = None,
                       acceptance: Optional[EdgeAcceptance] = None
                       ) -> AttributedGraph:
    """Reconnect orphaned nodes to the main component (Algorithm 2).

    At most ``4 n`` orphans are processed, a safety bound on the repair.

    Parameters
    ----------
    graph:
        The generated graph; it is copied, not modified.
    desired_degrees:
        Desired degree per node (the degree sequence ``S`` of the input
        graph, aligned with node ids).
    pi:
        Node-sampling distribution used to pick attachment targets.
    rng:
        Seed or generator.
    acceptance:
        Optional attribute-dependent acceptance probabilities; accepted
        partners are still filtered through them so the repair step does not
        wash out the attribute correlations.

    Returns
    -------
    AttributedGraph
        A graph with (almost always) a single connected component and a total
        edge count equal to ``sum(desired_degrees) // 2``.
    """
    generator = ensure_rng(rng)
    desired = np.asarray(desired_degrees, dtype=np.int64)
    if desired.size != graph.num_nodes:
        raise ValueError(
            f"desired_degrees must have length {graph.num_nodes}, got {desired.size}"
        )
    pi = np.asarray(pi, dtype=float)
    if pi.size != graph.num_nodes:
        raise ValueError(f"pi must have length {graph.num_nodes}, got {pi.size}")

    result = graph.copy()
    _RepairEngine(result, desired, pi, generator, acceptance).run()
    return result


# ----------------------------------------------------------------------
# Vectorized repair engine
# ----------------------------------------------------------------------
class _RepairEngine:
    """Block-vectorized Algorithm 2 repair over one graph.

    The engine *owns* the working structure — a CSR snapshot, an exact
    mutation overlay (canonical edge keys added/removed since the snapshot,
    O(1) set updates), the degree array and the edge count — and does not
    touch the graph object until one vectorized adoption pass at the end
    (the same discipline as the TriCycLe rewiring engine), so no per-edge
    mutation ever pays the graph's bookkeeping.  The snapshot serves
    victim-edge slot sampling, common-neighbour scoring, the component
    decomposition and the budgeted reachability probe; the overlay is
    folded in — one sort-free O(n + m + δ) merge — at every decomposition
    and whenever it outgrows :data:`_SNAPSHOT_REFRESH`.

    The attach loop runs in *rounds over the whole orphan worklist*: round
    ``r`` hands every still-unattached orphan its ``r``-th π draw from the
    presampled stream and evaluates all partner filters (self,
    main-component membership, desired-degree headroom, acceptance coins)
    as one array mask, so the per-orphan Python work is reduced to the
    admissions that actually mutate the edge set.
    """

    def __init__(self, graph: AttributedGraph, desired: np.ndarray,
                 pi: np.ndarray, generator: np.random.Generator,
                 acceptance: Optional[EdgeAcceptance]) -> None:
        self._graph = graph
        self._n = graph.num_nodes
        self._desired = desired
        self._generator = generator
        self._acceptance = acceptance
        self._target_edges = int(desired.sum() // 2)
        self._max_rounds = 4 * max(1, self._n)
        self._stream: Optional[PresampledStream] = (
            PresampledStream(WeightedSampler(pi), generator, block_size=2048)
            if pi.sum() > 0 else None
        )
        self._reach = BudgetedReachability(self._n)
        self._indptr, self._indices = graph.csr()
        # Sorted directed-key table of the snapshot (``u * n + v`` for every
        # edge orientation) — the common-neighbour scorer's search target,
        # kept in lockstep with the snapshot (every fold produces the next
        # table as its intermediate, so maintenance is free).
        self._sdk = np.repeat(
            np.arange(self._n, dtype=np.int64), np.diff(self._indptr)
        ) * self._n + self._indices
        self._degrees = graph.degrees()
        self._m = graph.num_edges
        self._mutated = False
        # Canonical keys (min * n + max) mutated relative to the snapshot;
        # sorted directed-key arrays are derived lazily for the (rare) bulk
        # consumers, so the per-mutation cost stays O(1).
        self._added: Set[int] = set()
        self._removed: Set[int] = set()
        self._touched: dict = {}
        self._deltas_cache: Optional[Tuple[np.ndarray, np.ndarray]] = None
        # Presampled, pre-scored victim slots of the current snapshot —
        # Python lists (one bulk ``tolist`` per replenish), because the
        # consumer pops scalars and list reads beat numpy scalar indexing.
        self._slot_lo: List[int] = []
        self._slot_hi: List[int] = []
        self._slot_counts: List[int] = []
        self._slot_cursor = 0
        self._main = np.zeros(self._n, dtype=bool)  # main component per node

    # ------------------------------------------------------------------
    # Mutation bookkeeping (engine-owned, the graph is never touched)
    # ------------------------------------------------------------------
    def _add_edge(self, u: int, v: int) -> None:
        key = u * self._n + v if u < v else v * self._n + u
        if key in self._removed:
            self._removed.discard(key)
        else:
            self._added.add(key)
        self._degrees[u] += 1
        self._degrees[v] += 1
        self._m += 1
        self._mutated = True
        self._deltas_cache = None

    def _remove_edge(self, u: int, v: int) -> None:
        key = u * self._n + v if u < v else v * self._n + u
        if key in self._added:
            self._added.discard(key)
        else:
            self._removed.add(key)
        self._degrees[u] -= 1
        self._degrees[v] -= 1
        self._m -= 1
        self._mutated = True
        self._deltas_cache = None
        # Removals invalidate snapshot-based triangle proofs around their
        # endpoints; _remove_victim bounds the possible damage with these
        # per-node counts before trusting a pre-scored common-neighbour
        # count (each removal at u can destroy at most one of the edge's
        # supporting triangles).
        self._touched[u] = self._touched.get(u, 0) + 1
        self._touched[v] = self._touched.get(v, 0) + 1

    def _fold(self) -> None:
        """Merge the overlay into a fresh snapshot (sort-free, O(n+m+δ))."""
        if not self._added and not self._removed:
            return
        added_d, removed_d = self._deltas()
        self._sdk = fold_sorted_keys(self._sdk, added_d, removed_d)
        self._indptr, self._indices = directed_keys_to_csr(
            self._n, self._sdk
        )
        self._added.clear()
        self._removed.clear()
        self._touched.clear()
        self._deltas_cache = None
        self._slot_lo = []
        self._slot_hi = []
        self._slot_counts = []
        self._slot_cursor = 0

    def _deltas(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(added_directed, removed_directed)``, sorted (both orientations)."""
        if self._deltas_cache is None:
            n = self._n

            def directed(keys: Set[int]) -> np.ndarray:
                if not keys:
                    return np.empty(0, dtype=np.int64)
                canon = np.fromiter(keys, dtype=np.int64, count=len(keys))
                lo = canon // n
                hi = canon % n
                both = np.concatenate((canon, hi * n + lo))
                both.sort()
                return both

            self._deltas_cache = (
                directed(self._added), directed(self._removed)
            )
        return self._deltas_cache

    def _live_row(self, node: int) -> np.ndarray:
        """Live neighbours of ``node``: snapshot row corrected by the overlay."""
        row = self._indices[self._indptr[node]:self._indptr[node + 1]]
        if not self._added and not self._removed:
            return row
        n = self._n
        added_d, removed_d = self._deltas()
        lo, hi = node * n, node * n + n
        r0, r1 = np.searchsorted(removed_d, (lo, hi))
        if r1 > r0:
            row = row[~sorted_membership(removed_d[r0:r1] - lo, row)]
        a0, a1 = np.searchsorted(added_d, (lo, hi))
        if a1 > a0:
            row = np.concatenate((row, added_d[a0:a1] - lo))
        return row

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> None:
        self._run_loop()
        if self._mutated:
            self._fold()
            self._graph._adopt_directed_keys(
                self._sdk, self._m
            )

    def _run_loop(self) -> None:
        rounds = 0
        best_orphans: Optional[int] = None
        stalls = 0
        stall_limit = _STALL_LIMIT
        warned = False
        while rounds < self._max_rounds:
            self._fold()
            labels, count = _labels_from_csr(
                self._n, self._indptr, self._indices
            )
            if count <= 1:
                return
            sizes = np.bincount(labels, minlength=count)
            # argmax takes the first maximum; labels are assigned in
            # increasing min-node order, so ties resolve exactly like the
            # reference's (-size, min node) sort.
            main_label = int(sizes.argmax())
            if not warned and self._target_edges < self._n - 1:
                _warn_infeasible(self._target_edges, self._n)
                warned = True
                stall_limit = 1
            # Process orphans by ascending id (deterministic for a fixed
            # seed), exactly like the scalar reference.
            worklist = np.flatnonzero(labels != main_label)
            if best_orphans is not None and worklist.size >= best_orphans:
                stalls += 1
                if stalls >= stall_limit:
                    return
            else:
                best_orphans = int(worklist.size)
                stalls = 0
            self._main = labels == main_label
            truncated = worklist.size > self._max_rounds - rounds
            worklist = worklist[:self._max_rounds - rounds]
            rounds += int(worklist.size)
            clean, all_attached = self._attach_pass(worklist)
            if clean and all_attached and not truncated:
                # Every non-main node now provably hangs off the main
                # component (each attached at least one edge to it) and
                # every removal was verified connectivity-safe, so the
                # graph is one component — skip the confirming O(n + m)
                # decomposition.
                return

    # ------------------------------------------------------------------
    # Attach pass (one worklist, round-batched)
    # ------------------------------------------------------------------
    def _detach_all(self, worklist: np.ndarray) -> None:
        """Remove every stray edge incident to the worklist orphans.

        Runs right after a snapshot refresh, so the snapshot rows *are* the
        live adjacency: one frontier gather yields all stray edges at once.
        """
        neighbours, owners = _gather_frontier(
            self._indptr, self._indices, worklist
        )
        if neighbours.size == 0:
            return
        lo = np.minimum(owners, neighbours)
        hi = np.maximum(owners, neighbours)
        n = self._n
        keys = _sorted_dedupe(lo * n + hi)
        for key in keys.tolist():
            self._remove_edge(key // n, key % n)

    def _attach_pass(self, worklist: np.ndarray) -> Tuple[bool, bool]:
        """Give every orphan its per-round π draws until attached/exhausted.

        Returns ``(clean, all_attached)``: whether every victim removal was
        verified connectivity-safe, and whether every worklist orphan ended
        up holding at least one edge into the main component.
        """
        generator = self._generator
        degrees = self._degrees
        desired = self._desired
        n = self._n
        self._detach_all(worklist)

        pending = worklist.copy()
        wanted = np.maximum(1, desired[pending])
        budget = 50 * wanted + 50
        half = budget // 2
        attached = np.zeros(pending.size, dtype=np.int64)
        # Partners already wired per multi-edge orphan (duplicate filter);
        # the common degree-one case never allocates an entry.
        partner_sets: dict = {}
        clean = True
        all_attached = True
        round_index = 0
        while pending.size:
            round_index += 1
            if self._stream is not None:
                partners = self._stream.take(pending.size)
            else:
                partners = generator.integers(0, n, size=pending.size)
            mask = partners != pending
            mask &= self._main[partners]
            # Prefer partners whose desired degree is not yet met; the
            # filter is dropped for an orphan once its attempts pile up, so
            # the repair always terminates (the reference's escape hatch).
            headroom = round_index < half
            saturated = degrees[partners] >= desired[partners]
            mask &= ~(headroom & saturated)
            if self._acceptance is not None:
                chosen = np.flatnonzero(mask)
                if chosen.size:
                    probabilities = self._acceptance.pair_probabilities(
                        pending[chosen], partners[chosen]
                    )
                    coins = generator.random(chosen.size)
                    mask[chosen[coins > probabilities]] = False
            positions = np.flatnonzero(mask)
            orphan_list = pending[positions].tolist()
            partner_list = partners[positions].tolist()
            for position, orphan, partner in zip(
                positions.tolist(), orphan_list, partner_list
            ):
                if attached[position]:
                    # Multi-edge orphans must not re-pick a partner.
                    if partner in partner_sets[orphan]:
                        continue
                if headroom[position] and degrees[partner] >= desired[partner]:
                    # Degrees moved under this round's mask (an earlier
                    # admission in the same round raised them).
                    continue
                self._add_edge(orphan, partner)
                attached[position] += 1
                if wanted[position] > 1:
                    partner_sets.setdefault(orphan, set()).add(partner)
                if self._m > self._target_edges:
                    if not self._remove_victim(orphan):
                        clean = False
            done = attached >= wanted
            exhausted = ~done & (round_index >= budget)
            finished = done | exhausted
            if finished.any():
                if (exhausted & (attached == 0)).any():
                    all_attached = False
                # The reference mainlines an orphan as soon as it holds at
                # least one repaired edge.
                self._main[pending[finished & (attached > 0)]] = True
                keep = ~finished
                pending = pending[keep]
                wanted = wanted[keep]
                budget = budget[keep]
                half = half[keep]
                attached = attached[keep]
        return clean, all_attached

    # ------------------------------------------------------------------
    # Victim-edge removal
    # ------------------------------------------------------------------
    def _replenish_slots(self) -> None:
        """Presample and pre-score a block of victim slots of the snapshot.

        Slots are uniform directed-edge positions (degree-weighted node
        pick + uniform neighbour pick, like the reference's rejection
        sampler) and every slot's common-neighbour count is computed here,
        in **one vectorized pass over the CSR rows of the whole block** —
        so consuming a candidate costs a cursor bump and two set probes,
        with no per-removal row work at all.
        """
        num_slots = self._indices.size
        if num_slots == 0:
            self._slot_lo = []
            self._slot_hi = []
            self._slot_counts = []
            self._slot_cursor = 0
            return
        slots = self._generator.integers(0, num_slots, size=1024)
        keys = self._sdk[slots]
        us = keys // self._n
        vs = keys % self._n
        lo = np.minimum(us, vs)
        hi = np.maximum(us, vs)
        self._slot_lo = lo.tolist()
        self._slot_hi = hi.tolist()
        self._slot_counts = self._common_neighbour_counts(lo, hi).tolist()
        self._slot_cursor = 0

    def _remove_victim(self, protected_node: int) -> bool:
        """Remove one random edge not incident to ``protected_node``.

        Returns ``True`` when the removal provably (up to snapshot
        staleness) kept the graph connected and ``False`` when an arbitrary
        edge was removed — any disconnection missed through staleness is
        caught by the next full component decomposition, so the output
        invariants are unaffected.

        Candidates are uniform random *slots* of the directed CSR snapshot
        (equivalent to the reference's degree-weighted node pick followed
        by a uniform neighbour pick), presampled in blocks and validated
        against the mutation overlay as they are consumed.  Preference
        order matches the reference: a triangle edge destroying the fewest
        triangles, then a candidate whose endpoints the budgeted frontier
        BFS still connects, then an arbitrary candidate.
        """
        if self._m == 0:
            return True
        if len(self._added) + len(self._removed) > _SNAPSHOT_REFRESH:
            self._fold()
        n = self._n
        removed = self._removed
        candidates: List[Tuple[int, int]] = []
        positives: List[Tuple[int, int, int]] = []
        fallback: Optional[Tuple[int, int]] = None
        consumed = 0
        # Consume pre-scored slots in two chunks: the reference-sized
        # candidate pool first, then — only when it contains no triangle
        # edge — a second chunk before paying a reachability probe.
        limit = _NUM_CANDIDATES
        slot_lo, slot_hi = self._slot_lo, self._slot_hi
        slot_counts = self._slot_counts
        cursor = self._slot_cursor
        buffered = len(slot_lo)
        filled = 0
        while filled < limit and consumed < 512:
            if cursor >= buffered:
                self._slot_cursor = cursor
                self._replenish_slots()
                slot_lo, slot_hi = self._slot_lo, self._slot_hi
                slot_counts = self._slot_counts
                cursor = self._slot_cursor
                buffered = len(slot_lo)
                if buffered == 0:
                    break
            lo = slot_lo[cursor]
            hi = slot_hi[cursor]
            count = slot_counts[cursor]
            cursor += 1
            consumed += 1
            if lo * n + hi in removed:
                continue
            if lo == protected_node or hi == protected_node:
                if fallback is None:
                    fallback = (lo, hi)
                continue
            candidates.append((lo, hi))
            filled += 1
            # An edge on a triangle is (modulo snapshot staleness) not a
            # bridge; among those prefer the fewest common neighbours so
            # the fewest triangles are destroyed.
            if count > 0:
                positives.append((count, lo, hi))
            if filled >= limit and not positives \
                    and limit == _NUM_CANDIDATES:
                limit = 2 * _NUM_CANDIDATES
        self._slot_cursor = cursor
        if not candidates:
            if fallback is None:
                # The snapshot had no usable slots (e.g. every live edge
                # was added after it).  Fall back to one exact
                # degree-weighted draw over the live edge set so an edge is
                # always removed.
                cumulative = np.cumsum(self._degrees)
                r = int(self._generator.integers(int(cumulative[-1])))
                u = int(np.searchsorted(cumulative, r, side="right"))
                offset = r - (int(cumulative[u - 1]) if u else 0)
                v = int(self._live_row(u)[offset])
                fallback = (u, v) if u < v else (v, u)
            candidates = [fallback]
            counts = self._common_neighbour_counts(
                np.array([candidates[0][0]], dtype=np.int64),
                np.array([candidates[0][1]], dtype=np.int64),
            )
            if int(counts[0]) > 0:
                positives.append(
                    (int(counts[0]), candidates[0][0], candidates[0][1])
                )
        if positives:
            # A pre-scored count proves an edge sits on a triangle — hence
            # is no bridge — as long as the removals that touched its
            # endpoints since the snapshot cannot have destroyed every
            # supporting common neighbour (each such removal kills at most
            # one); past that bound, re-prove liveness exactly.  Walk the
            # positives by ascending count (fewest triangles destroyed
            # first) and take the first whose proof stands.
            touched = self._touched
            positives.sort()
            for count, u, v in positives:
                if count > touched.get(u, 0) + touched.get(v, 0) \
                        or self._triangle_alive(u, v):
                    self._remove_edge(u, v)
                    return True

        degrees = self._degrees
        added_d, removed_d = self._deltas()
        for u, v in candidates:
            # An endpoint left with no other edge is certainly
            # disconnected.  Otherwise probe reachability *as if* the edge
            # were removed — the trial overlay is the removal delta plus
            # this one edge, so no mutation churn (or triangle-proof
            # pollution) happens for rejected candidates.  Probe from the
            # lower-degree side: a small detached fragment empties the
            # frontier (a cheap, definitive "no") where the giant side
            # would burn the whole budget.
            if degrees[u] > 1 and degrees[v] > 1:
                source, sink = (u, v) if degrees[u] <= degrees[v] else (v, u)
                trial_keys = np.array(
                    [u * n + v, v * n + u], dtype=np.int64
                )
                if u * n + v in self._added:
                    # A fallback candidate can be an overlay-added edge
                    # (absent from the snapshot); the trial must drop it
                    # from the added overlay, or the probe would reach the
                    # sink through the very edge being removed.
                    trial_added = np.delete(
                        added_d, np.searchsorted(added_d, trial_keys)
                    )
                    trial_removed = removed_d
                else:
                    trial_added = added_d
                    trial_removed = np.insert(
                        removed_d, np.searchsorted(removed_d, trial_keys),
                        trial_keys,
                    )
                if self._reach.reachable(
                    self._indptr, self._indices, source, sink,
                    edge_budget=_BFS_EDGE_BUDGET,
                    added_keys=trial_added, removed_keys=trial_removed,
                ):
                    self._remove_edge(u, v)
                    return True
        self._remove_edge(*candidates[0])
        return False

    def _triangle_alive(self, u: int, v: int) -> bool:
        """Exact check: does ``{u, v}`` still sit on a live triangle?

        Walks the snapshot-row common neighbours and accepts the first one
        whose two supporting edges are not in the removal overlay.  Called
        only when a removal since the snapshot touched ``u`` or ``v``.
        """
        indptr, indices = self._indptr, self._indices
        n = self._n
        removed = self._removed
        common = sorted_intersect(
            indices[indptr[u]:indptr[u + 1]],
            indices[indptr[v]:indptr[v + 1]],
        )
        for w in common.tolist():
            key_u = u * n + w if u < w else w * n + u
            key_v = v * n + w if v < w else w * n + v
            if key_u not in removed and key_v not in removed:
                return True
        return False

    def _common_neighbour_counts(self, us: np.ndarray, vs: np.ndarray
                                 ) -> np.ndarray:
        """Common-neighbour count per edge ``(us[i], vs[i])``, snapshot rows.

        All pairs are scored in one pass: each pair's *smaller-degree*
        endpoint row is gathered (one frontier-style pass), every gathered
        neighbour ``w`` is turned into the directed key ``other * n + w``,
        and one ``searchsorted`` against the snapshot's directed-key table
        answers all membership probes; a ``bincount`` reduces the hits per
        pair.  Querying from the smaller side halves the gathered volume on
        the degree-weighted victim slots, which land on hubs by design.
        """
        indptr = self._indptr
        n = self._n
        k = us.size
        degree_u = indptr[us + 1] - indptr[us]
        degree_v = indptr[vs + 1] - indptr[vs]
        smaller_first = degree_u <= degree_v
        query_nodes = np.where(smaller_first, us, vs)
        other_nodes = np.where(smaller_first, vs, us)
        neighbours, _owners = _gather_frontier(
            indptr, self._indices, query_nodes
        )
        if neighbours.size == 0:
            return np.zeros(k, dtype=np.int64)
        pair_index = np.repeat(
            np.arange(k, dtype=np.int64),
            np.minimum(degree_u, degree_v),
        )
        hits = sorted_membership(
            self._sdk, other_nodes[pair_index] * n + neighbours
        )
        return np.bincount(pair_index[hits], minlength=k)

