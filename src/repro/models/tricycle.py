"""TriCycLe: the paper's triangle-targeting Chung-Lu model (Algorithm 1).

TriCycLe captures both the degree distribution and the clustering of a
social graph using only two statistics that admit accurate DP estimators:
the degree sequence and the triangle count.  Generation proceeds in two
phases:

1. a Chung-Lu seed graph with the desired degree sequence is generated;
2. edges are iteratively rewired — a "friend of a friend" edge is proposed
   (creating at least one new triangle) and the oldest seed edge is retired —
   until the graph contains the target number of triangles.  Replacements
   that would lower the net triangle count are rejected, which guarantees
   progress and termination with the desired count (up to the attempt
   budget).

Edges retire in arrival order.  Chung-Lu draws are exchangeable, so the
seed edges queue in a seeded random order, and every rewired edge joins the
back of the queue.  Node ids carry no age: private degree sequences are
sorted, and retiring seed edges by id would strip the lowest-degree nodes
bare for the final orphan repair.

The orphan extension of Section 3.3 is supported: degree-one nodes can be
excluded from the π distribution and wired up afterwards by
:func:`repro.models.postprocess.post_process_graph`.

Batched proposal evaluation
---------------------------
The exact rewiring loop runs on an engine built around **incrementally
maintained CSR snapshots**:

* the live structure is a :class:`_SortedAdjacency` (sorted neighbour rows
  plus set mirrors); the graph object is not touched until the loop ends,
  when the final edge set is adopted back in one vectorized pass;
* proposal blocks evaluate walk endpoints and adjacency probes for a whole
  window in a handful of NumPy passes against an immutable
  :class:`_Snapshot`; common-neighbour counts come from vectorized merges
  of the snapshot rows while the rows are untouched;
* every accepted swap is **patched into the block as a delta overlay** —
  the mutated-node set plus the edge keys added/removed since the snapshot
  — in O(1), instead of funnelling all later proposals through a live
  fallback;
* a snapshot is *folded forward* (previous keys ⊕ overlay, a sort-free
  array merge) whenever a new evaluation window starts, so the vectorized
  answers keep their hit rate across whole blocks;
* proposals that are provably non-viable — no second hop, or the proposed
  edge already exists — are skipped in bulk with zero per-proposal Python
  work; the skip ranges are verified against the mutated-node mask, and
  the ranges are disjoint over a block's lifetime, so verification totals
  O(block), not O(block · swaps).

The engine is bit-identical to the per-proposal reference loop
(:class:`repro.testing.reference.SequentialTriCycLeModel`): both share the
same sorted-row pick semantics and presampled RNG stream, and every
batched answer equals the live value at the moment it is consulted (pinned
by ``tests/models/test_tricycle.py``).

Speculative rewiring (``equivalence="distributional"``)
-------------------------------------------------------
The exact contract caps the batched engine's speedup — the workload is
accept-dominated, so the scalar swap sequence itself is the bottleneck.
``equivalence="distributional"`` dispatches rewiring to
:class:`repro.models.rewiring.SpeculativeRewiring`, which commits whole
blocks of disjoint accepted swaps per snapshot and is pinned by
distributional closeness (degree sequence, Θ'_F, triangle count) rather
than bit-identity; see :mod:`repro.models.rewiring` for the contract.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

import numpy as np

from repro.graphs.attributed import AttributedGraph
from repro.graphs.statistics import triangle_count
from repro.models.base import EdgeAcceptance, StructuralModel
from repro.models.chung_lu import ChungLuModel, build_pi_distribution
from repro.models.postprocess import post_process_graph
from repro.models.rewiring import (  # noqa: F401  (re-exported names)
    _EVAL_WINDOW,
    _ProposalBlock,
    _Snapshot,
    _SortedAdjacency,
    Edge,
    SpeculativeRewiring,
)
from repro.utils.memory import (
    MemoryBudget,
    adjacency_set_bytes,
    csr_bytes,
    edge_age_bytes,
)
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.sampling import WeightedSampler

_EQUIVALENCE_MODES = ("exact", "distributional")


class TriCycLeModel(StructuralModel):
    """The TriCycLe generative model.

    Rewiring retires edges in arrival order: the seed edges in a seeded
    random order (the order of exchangeable Chung-Lu draws), then the
    rewired edges in the order they were added.

    Parameters
    ----------
    degrees:
        Desired degree sequence (one entry per node).
    num_triangles:
        Target number of triangles ``n_∆``.
    handle_orphans:
        Enable the orphan extension: exclude degree-one nodes from the π
        distribution, generate ``m - |N_1|`` seed edges, and repair
        disconnected nodes with the Algorithm 2 post-processing step.
    max_iteration_factor:
        The rewiring loop proposes at most ``max_iteration_factor * m`` edges
        before giving up; this keeps generation bounded when the degree
        sequence simply cannot support the requested number of triangles.
    equivalence:
        Rewiring equivalence contract.  ``"exact"`` (default) is
        bit-identical to the historical scalar swap sequence;
        ``"distributional"`` dispatches to the speculative block engine
        (:class:`repro.models.rewiring.SpeculativeRewiring`), which targets
        the same degree/triangle/Θ'_F distributions but commits whole blocks
        of disjoint swaps per snapshot.  Deterministic per seed.
    memory_budget_mb:
        Optional byte budget for generation (defaults to the
        ``REPRO_MEMORY_BUDGET_MB`` environment variable when unset).  The
        Chung-Lu seed phase samples in byte-bounded shards, and the rewiring
        phase's dominant working set (set-mirrored adjacency, edge-age
        queue, CSR snapshots) is admitted against the budget before the
        loop starts, raising :class:`~repro.utils.memory.MemoryBudgetError`
        when it cannot fit.  Generated graphs are unaffected by the budget.
    """

    def __init__(self, degrees: np.ndarray, num_triangles: int,
                 handle_orphans: bool = True,
                 max_iteration_factor: int = 30,
                 equivalence: str = "exact",
                 memory_budget_mb: Optional[int] = None) -> None:
        self._degrees = np.asarray(degrees, dtype=np.int64)
        if self._degrees.ndim != 1:
            raise ValueError("degrees must be one-dimensional")
        if np.any(self._degrees < 0):
            raise ValueError("degrees must be non-negative")
        if num_triangles < 0:
            raise ValueError(f"num_triangles must be non-negative, got {num_triangles}")
        if max_iteration_factor < 1:
            raise ValueError("max_iteration_factor must be >= 1")
        if equivalence not in _EQUIVALENCE_MODES:
            raise ValueError(
                f"equivalence must be one of {_EQUIVALENCE_MODES}, "
                f"got {equivalence!r}"
            )
        self._num_triangles = int(num_triangles)
        self._handle_orphans = bool(handle_orphans)
        self._max_iteration_factor = int(max_iteration_factor)
        self._equivalence = str(equivalence)
        self._memory_budget_mb = (
            None if memory_budget_mb is None else int(memory_budget_mb)
        )
        self._memory_budget = MemoryBudget.resolve(memory_budget_mb)
        self._last_rewiring_stats: Optional[dict] = None

    @property
    def degrees(self) -> np.ndarray:
        """The desired degree sequence."""
        return self._degrees

    @property
    def num_triangles(self) -> int:
        """The target triangle count ``n_∆``."""
        return self._num_triangles

    @property
    def target_num_edges(self) -> int:
        """Target number of edges ``m = sum(d_i) / 2``."""
        return int(self._degrees.sum() // 2)

    @property
    def equivalence(self) -> str:
        """The rewiring equivalence contract (``exact``/``distributional``)."""
        return self._equivalence

    @property
    def last_rewiring_stats(self) -> Optional[dict]:
        """Speculative-engine telemetry from the latest ``generate()``.

        ``None`` unless the last generation ran the distributional engine;
        otherwise the engine's counter dict (rounds, proposals, accepted,
        conflicts, restored pops, folds, …) — the raw material for the
        bench harness's per-block acceptance/conflict/rollback rates.
        """
        return self._last_rewiring_stats

    def generate(self, num_nodes: Optional[int] = None, rng: RngLike = None,
                 acceptance: Optional[EdgeAcceptance] = None) -> AttributedGraph:
        """Generate a TriCycLe graph (Algorithm 1 plus the orphan extension).

        Parameters
        ----------
        num_nodes:
            Number of nodes; defaults to the degree-sequence length and must
            match it when given.
        rng:
            Seed or generator.
        acceptance:
            Optional attribute-dependent acceptance probabilities.  When
            supplied, both the Chung-Lu seed phase and the rewiring phase
            filter proposed edges through them (Section 4).
        """
        n = self._degrees.size if num_nodes is None else int(num_nodes)
        if n != self._degrees.size:
            raise ValueError(
                f"num_nodes ({n}) must match the degree sequence length "
                f"({self._degrees.size})"
            )
        generator = ensure_rng(rng)

        seed_model = ChungLuModel(
            self._degrees,
            bias_correction=True,
            exclude_degree_one=self._handle_orphans,
            memory_budget_mb=self._memory_budget_mb,
        )
        graph = seed_model.generate(rng=generator, acceptance=acceptance)
        pi = build_pi_distribution(
            self._degrees, exclude_degree_one=self._handle_orphans
        )
        if self._handle_orphans:
            # The paper applies the orphan repair to the Chung-Lu seed graph
            # as well as to the final output (Section 3.3), so the rewiring
            # phase can compensate for any triangles the repair destroys.
            graph = post_process_graph(
                graph, self._degrees, pi, rng=generator, acceptance=acceptance,
            )

        accel = graph.metrics_accelerator
        self._last_rewiring_stats = None
        if accel is not None:
            if self._equivalence == "distributional":
                # The speculative engine's batched kernels already compute
                # every intersection maintenance needs, so the accelerator
                # stays attached and is fed per-round swap batches.
                accel.record_rewiring_policy("kept")
            else:
                # The exact loops maintain their own incremental triangle
                # count and already pay two common-neighbour probes per
                # proposal; piggybacking full per-edge metric maintenance
                # would double that cost for counts nobody reads mid-loop.
                # Use the escape hatch — the consumer re-primes afterwards.
                accel.record_rewiring_policy("detached")
                accel.detach()
                accel = None
        # Admit the rewiring phase's dominant resident structures before
        # building any of them: the edge-age queue, the set-mirrored
        # adjacency (or its speculative-engine equivalent), and the CSR
        # snapshot plus its fold scratch (int64 directed keys, ~3 copies at
        # the fold peak).
        self._memory_budget.admit(
            "tricycle.rewire",
            edge_age_bytes(graph.num_edges)
            + adjacency_set_bytes(n, graph.num_edges)
            + csr_bytes(n, graph.num_edges)
            + 3 * 2 * 8 * graph.num_edges,
        )
        # Chung-Lu draws are exchangeable, so a seeded random order is the
        # seed edges' arrival order in distribution.  ``graph.edges()`` is
        # id order, which would retire the lowest-degree nodes' edges first.
        sources, targets = graph.edge_arrays()
        arrival = generator.permutation(sources.size)
        edge_age: Deque[Edge] = deque(
            zip(sources[arrival].tolist(), targets[arrival].tolist())
        )
        tau = triangle_count(graph)
        target = self._num_triangles
        max_iterations = self._max_iteration_factor * max(graph.num_edges, 1)
        sampler = WeightedSampler(pi)

        if self._equivalence == "distributional":
            engine = SpeculativeRewiring(
                graph, edge_age, tau, target, max_iterations, sampler,
                generator, acceptance, accel=accel,
            )
            engine.run()
            self._last_rewiring_stats = dict(engine.stats)
        else:
            self._rewire_batched(graph, _SortedAdjacency(graph), edge_age,
                                 tau, target, max_iterations, sampler,
                                 generator, acceptance)

        if self._handle_orphans:
            graph = post_process_graph(
                graph, self._degrees, pi, rng=generator, acceptance=acceptance,
            )
        if acceptance is not None and graph.num_attributes == 0:
            # Ensure the attribute dimension matches what AGM expects.
            graph = AttributedGraph.from_graph_structure(
                graph, acceptance.num_attributes
            )
        return graph

    # ------------------------------------------------------------------
    # Batched rewiring (incremental snapshots)
    # ------------------------------------------------------------------
    def _rewire_batched(self, graph: AttributedGraph,
                        adjacency: _SortedAdjacency,
                        edge_age: Deque[Edge], tau: int, target: int,
                        max_iterations: int, sampler: WeightedSampler,
                        generator: np.random.Generator,
                        acceptance: Optional[EdgeAcceptance]) -> None:
        """Vectorized loop on incrementally folded snapshots.

        The graph object is untouched while rewiring: the live structure is
        ``adjacency`` (rows + set mirrors), probes and counts run against
        the current :class:`_ProposalBlock`'s snapshot-plus-overlay, and the
        final edge set is adopted back into the graph in one vectorized
        pass.  Bit-identical to the per-proposal reference loop.
        """
        block_size = max(256, min(65536, max_iterations))
        vi_block = sampler.sample_many(block_size, generator)
        unit_block = generator.random((block_size, 2))
        cursor = 0
        iterations = 0
        base = 0
        swapped = False
        if graph.num_edges == 0 or tau >= target:
            return
        adjacency.ensure_sets()
        snapshot = _Snapshot.from_graph(graph)
        batch = _ProposalBlock(
            snapshot, vi_block[:_EVAL_WINDOW], unit_block[:_EVAL_WINDOW]
        )
        # Scalar consults read the presampled blocks as Python lists — one
        # bulk conversion per RNG block instead of a NumPy scalar unbox per
        # proposal.
        vi_list = vi_block.tolist()
        unit_one = unit_block[:, 0].tolist()
        unit_two = unit_block[:, 1].tolist()

        while tau < target and iterations < max_iterations:
            iterations += 1
            if cursor >= block_size:
                snapshot = batch.folded_snapshot()
                vi_block = sampler.sample_many(block_size, generator)
                unit_block = generator.random((block_size, 2))
                cursor = 0
                base = 0
                batch = _ProposalBlock(
                    snapshot, vi_block[:_EVAL_WINDOW], unit_block[:_EVAL_WINDOW]
                )
                vi_list = vi_block.tolist()
                unit_one = unit_block[:, 0].tolist()
                unit_two = unit_block[:, 1].tolist()
            elif cursor >= base + batch.size:
                # Window exhausted: fold the overlay forward and evaluate
                # the next window against the fresh snapshot.
                snapshot = batch.folded_snapshot()
                base = cursor
                batch = _ProposalBlock(
                    snapshot,
                    vi_block[cursor:cursor + _EVAL_WINDOW],
                    unit_block[cursor:cursor + _EVAL_WINDOW],
                )

            index = base + batch.next_consult(cursor - base)
            if index > cursor:
                # Proposals [cursor, index) are provably no-ops right now;
                # the sequential loop burns one iteration on each without
                # touching the structure or the RNG, so only the iteration
                # budget and the cursor move.
                skip = min(index - cursor, max_iterations - iterations + 1)
                iterations += skip - 1
                cursor += skip
                continue

            vi = vi_list[cursor]
            local = cursor - base
            cursor += 1

            is_mutated = batch.is_mutated
            cn_hint: Optional[int] = None
            if is_mutated(vi):
                vk = adjacency.pick(vi, unit_one[index])
                if vk is None:
                    continue
                vj = adjacency.pick_excluding(vk, vi, unit_two[index])
                if vj is None or vj == vi:
                    continue
                if adjacency.has(vi, vj):
                    continue
            else:
                vk = batch.vk(local)
                if vk is None:
                    continue
                if is_mutated(vk):
                    vj = adjacency.pick_excluding(vk, vi, unit_two[index])
                    if vj is None or vj == vi:
                        continue
                    if adjacency.has(vi, vj):
                        continue
                else:
                    vj = batch.vj(local)
                    if vj is None:
                        continue
                    if batch.edge_exists(local, vi, vj):
                        continue
                    if not is_mutated(vj) and min(
                        batch.row_length(vi), batch.row_length(vj)
                    ) >= 64:
                        # Large untouched rows: the vectorized snapshot
                        # merge beats the live set intersection (identical
                        # integers); small or mutated rows take the live
                        # count below.
                        cn_hint = batch.pair_cn(vi, vj)
            if acceptance is not None and not acceptance.accepts(vi, vj, generator):
                continue

            oldest = self._pop_oldest_existing_edge_sets(adjacency, edge_age)
            if oldest is None:
                break
            vq, vr = oldest
            cn_old = adjacency.count_common(vq, vr)
            adjacency.remove(vq, vr)
            if cn_hint is not None and vq != vi and vq != vj \
                    and vr != vi and vr != vj:
                cn_new = cn_hint
            else:
                cn_new = adjacency.count_common(vi, vj)

            if cn_new >= cn_old:
                adjacency.add(vi, vj)
                batch.note_swap((vq, vr), (vi, vj))
                edge_age.append((min(vi, vj), max(vi, vj)))
                tau += cn_new - cn_old
                swapped = True
            else:
                # Undo the removal; sorted rows make the undo byte-exact,
                # so the snapshot stays untouched.
                adjacency.add(vq, vr)
                edge_age.append((vq, vr))

        if swapped:
            # Adopt the rewired edge set back into the graph in one
            # vectorized pass (the edge count is invariant under swaps).
            final = batch.folded_snapshot()
            graph._adopt_directed_keys(final.keys, graph.num_edges)

    @staticmethod
    def _pop_oldest_existing_edge_sets(adjacency: _SortedAdjacency,
                                       edge_age: Deque[Edge]) -> Optional[Edge]:
        """Pop the oldest edge still present in the (set-mirrored) adjacency."""
        sets = adjacency.sets
        while edge_age:
            u, v = edge_age.popleft()
            if v in sets[u]:
                return (u, v)
        return None
