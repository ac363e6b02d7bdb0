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

The starting count τ₀ is one totals-only ``triangle_count`` scan of the
seed graph, which is fresh and so has no statistics memo.  The rewiring
loop then tracks τ itself, and the graph sees no edge change until the
final rows are adopted in one pass.

The rewiring loop
-----------------
Rewiring is one plain per-proposal loop over the sorted neighbour
rows of a :class:`~repro.models.rewiring._SortedAdjacency`, for the two
uniform hops (index arithmetic on pre-drawn uniforms), and set mirrors of
the rows, for the adjacency probe and the two common-neighbour counts.  The
retired edge leaves the sets only; the sorted rows change only when a swap
is accepted.  The graph object is not touched until the loop ends, when the
final rows are adopted back in one vectorized pass.

The loop does not evaluate proposals in vectorized blocks against a CSR
snapshot, because on this workload such blocks do not pay.  Nearly every
proposal is viable (13.6k of 14.3k per generation at pokec-0.01), so there
is little to skip in bulk, and accepted swaps dirty the hub rows so fast
that about 80% of first hops and 92% of second hops would have to be
re-derived live anyway.  The snapshot bookkeeping then costs more than the
work it saves.

The loop is bit-identical to the per-proposal reference
(:class:`repro.testing.reference.SequentialTriCycLeModel`): both consume the
same presampled RNG stream and the same sorted-row pick arithmetic (pinned
by ``tests/models/test_tricycle.py``).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from typing import Deque, Optional

import numpy as np

from repro.graphs.attributed import AttributedGraph
from repro.graphs.statistics import triangle_count
from repro.models.base import EdgeAcceptance, StructuralModel
from repro.models.chung_lu import ChungLuModel, degree_pi_distribution
from repro.models.postprocess import post_process_graph
from repro.models.rewiring import Edge, _SortedAdjacency
from repro.utils.memory import (
    MemoryBudget,
    adjacency_set_bytes,
    csr_bytes,
    edge_age_bytes,
)
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.sampling import WeightedSampler

#: Rewiring proposes at most this many edges per seed edge before giving
#: up; this keeps generation bounded when the degree sequence simply cannot
#: support the requested number of triangles.
_MAX_ITERATION_FACTOR = 30


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
    memory_budget_mb:
        Optional byte budget for generation (defaults to the
        ``REPRO_MEMORY_BUDGET_MB`` environment variable when unset).  The
        Chung-Lu seed phase samples in byte-bounded shards, and the rewiring
        phase's dominant working set (set-mirrored adjacency, edge-age
        queue, adopted CSR) is admitted against the budget before the
        loop starts, raising :class:`~repro.utils.memory.MemoryBudgetError`
        when it cannot fit.  Generated graphs are unaffected by the budget.
    """

    def __init__(self, degrees: np.ndarray, num_triangles: int,
                 handle_orphans: bool = True,
                 memory_budget_mb: Optional[int] = None) -> None:
        self._degrees = np.asarray(degrees, dtype=np.int64)
        if self._degrees.ndim != 1:
            raise ValueError("degrees must be one-dimensional")
        if np.any(self._degrees < 0):
            raise ValueError("degrees must be non-negative")
        if num_triangles < 0:
            raise ValueError(f"num_triangles must be non-negative, got {num_triangles}")
        self._num_triangles = int(num_triangles)
        self._handle_orphans = bool(handle_orphans)
        self._memory_budget_mb = (
            None if memory_budget_mb is None else int(memory_budget_mb)
        )
        self._memory_budget = MemoryBudget.resolve(memory_budget_mb)

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

    def pi_distribution(self, num_nodes: Optional[int] = None) -> np.ndarray:
        """The Chung-Lu seed's π (degree-one nodes zeroed under
        ``handle_orphans``), which rewiring and repair also draw from."""
        return degree_pi_distribution(self._degrees, self._handle_orphans,
                                      num_nodes)

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
        pi = self.pi_distribution()
        if self._handle_orphans:
            # The paper applies the orphan repair to the Chung-Lu seed graph
            # as well as to the final output (Section 3.3), so the rewiring
            # phase can compensate for any triangles the repair destroys.
            graph = post_process_graph(
                graph, self._degrees, pi, rng=generator, acceptance=acceptance,
            )

        # Admit the rewiring phase's dominant resident structures before
        # building any of them: the edge-age queue, the set mirrors of the
        # sorted rows, the CSR the final adoption installs, and the
        # adoption's directed keys (owners, neighbours and packed keys:
        # three int64 arrays of 2m entries).
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
        max_iterations = _MAX_ITERATION_FACTOR * max(graph.num_edges, 1)
        sampler = WeightedSampler(pi)
        self._rewire_exact(graph, _SortedAdjacency(graph), edge_age, tau,
                           target, max_iterations, sampler, generator,
                           acceptance)

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
    # Rewiring
    # ------------------------------------------------------------------
    def _rewire_exact(self, graph: AttributedGraph,
                      adjacency: _SortedAdjacency,
                      edge_age: Deque[Edge], tau: int, target: int,
                      max_iterations: int, sampler: WeightedSampler,
                      generator: np.random.Generator,
                      acceptance: Optional[EdgeAcceptance]) -> None:
        """Algorithm 1's accept/reject chain, one proposal at a time.

        π proposals and the uniforms driving the two hops are drawn in
        blocks of up to 65 536 before the loop starts (also when there is
        nothing to rewire), then again each time a block is used up; each
        acceptance coin is one ``generator.random()`` draw in between.
        ``edge_age`` must hold exactly the live edges, oldest first.  The
        graph is untouched until the final rows are adopted back in one
        pass.
        """
        block_size = max(256, min(65536, max_iterations))
        vi_block = sampler.sample_many(block_size, generator)
        unit_block = generator.random((block_size, 2))
        if graph.num_edges == 0 or tau >= target:
            return
        rows = adjacency.lists
        sets = [set(row) for row in rows]
        if acceptance is not None:
            # Python lists: a NumPy scalar unbox per read would dominate the
            # loop (the presampled blocks are read the same way).
            codes = acceptance.node_codes.tolist()
            probabilities = acceptance.probabilities.tolist()
            q = 1 << acceptance.num_attributes
            coin = generator.random
        popleft = edge_age.popleft
        append = edge_age.append
        remaining = max_iterations
        swapped = False

        # One pass of the inner loop per presampled block.  tau only moves
        # on an accept, so the target is checked there.
        while True:
            count = min(block_size, remaining)
            remaining -= count
            for vi, hop_one, hop_two in zip(
                vi_block[:count].tolist(),
                unit_block[:count, 0].tolist(),
                unit_block[:count, 1].tolist(),
            ):
                # Friend-of-a-friend proposal (Algorithm 1, lines 5-9): a
                # uniform neighbour vk of vi, then a uniform neighbour vj of
                # vk other than vi.  vi is always in Γ(vk), so the second
                # hop skips its row position.  The clamps guard the float
                # product against rounding up to the row length.
                row = rows[vi]
                size = len(row)
                if not size:
                    continue
                hop = int(hop_one * size)
                vk = row[hop if hop < size else size - 1]
                row = rows[vk]
                size = len(row) - 1
                if not size:
                    continue
                hop = int(hop_two * size)
                if hop >= size:
                    hop = size - 1
                if hop >= bisect_left(row, vi):
                    hop += 1
                vj = row[hop]
                near = sets[vi]
                if vj in near:
                    continue
                if acceptance is not None:
                    a, b = codes[vi], codes[vj]
                    if a > b:
                        a, b = b, a
                    if not coin() <= probabilities[a * q - a * (a - 1) // 2
                                                   + (b - a)]:
                        continue

                # Retire the oldest edge from the sets, then count the
                # proposed edge's common neighbours without it.
                vq, vr = popleft()
                set_q, set_r = sets[vq], sets[vr]
                cn_old = len(set_q & set_r)
                set_q.discard(vr)
                set_r.discard(vq)
                far = sets[vj]
                cn_new = len(near & far)
                if cn_new >= cn_old:
                    row = rows[vq]
                    del row[bisect_left(row, vr)]
                    row = rows[vr]
                    del row[bisect_left(row, vq)]
                    insort(rows[vi], vj)
                    insort(rows[vj], vi)
                    near.add(vj)
                    far.add(vi)
                    append((vi, vj) if vi < vj else (vj, vi))
                    swapped = True
                    tau += cn_new - cn_old
                    if tau >= target:
                        break
                else:
                    # Undo the removal; the retired edge becomes the
                    # youngest so the loop cannot get stuck re-proposing
                    # the same swap.
                    set_q.add(vr)
                    set_r.add(vq)
                    append((vq, vr))
            else:
                if remaining:
                    vi_block = sampler.sample_many(block_size, generator)
                    unit_block = generator.random((block_size, 2))
                    continue
            break

        if swapped:
            # Swaps keep the edge count, so only the edge set is adopted.
            graph._adopt_directed_keys(adjacency.directed_keys(),
                                       graph.num_edges)
