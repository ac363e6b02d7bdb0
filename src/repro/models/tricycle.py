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

The orphan extension of Section 3.3 is always on: degree-one nodes get
zero weight in π, the seed has ``m - |N_1|`` edges, and
:func:`repro.models.postprocess.post_process_graph` (Algorithm 2) repairs
the seed graph and the rewired output.

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
is accepted.  A proposal pays only for modelling work:

* the edge-age queue holds packed keys ``u * n + v`` (``u < v``), built in
  one widened bulk pass and decoded by one ``divmod`` per pop;
* vk's row is strictly increasing and holds vi, so the second hop skips vi
  by taking ``row[hop + 1]`` exactly when ``row[hop] >= vi``;
* acceptance coins are drawn per block, then the generator is rewound to the
  coins used (``random(k)`` equals ``k`` scalar draws: the same stream);
* the rows hold interned node ids (one int object per node,
  :attr:`~repro.models.rewiring._SortedAdjacency.ids`), and each chunk of
  presampled proposals is read through the same object array, so the rows,
  the set mirrors and the proposals share those objects and a set probe
  that hits succeeds on identity.

The presampled blocks are read as Python lists a chunk at a time, the
coins included.  Before the rows are adopted, the set mirrors and the
blocks are released, so the adoption's edge-length arrays do not stack on
top of them.

The loop does not evaluate proposals in vectorized blocks against a CSR
snapshot: accepted swaps dirty the hub rows so fast that about 80% of first
hops and 92% of second hops would have to be re-derived live, so the
snapshot bookkeeping costs more than the work it saves.

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
from repro.graphs.dtypes import pack_edge_keys
from repro.graphs.statistics import triangle_count
from repro.models.base import EdgeAcceptance, StructuralModel
from repro.models.chung_lu import ChungLuModel, build_pi_distribution
from repro.models.postprocess import post_process_graph
from repro.models.rewiring import _SortedAdjacency
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

#: Proposals per conversion of the presampled block to Python lists.
_CHUNK = 4096


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
                 memory_budget_mb: Optional[int] = None) -> None:
        self._degrees = np.asarray(degrees, dtype=np.int64)
        if self._degrees.ndim != 1:
            raise ValueError("degrees must be one-dimensional")
        if np.any(self._degrees < 0):
            raise ValueError("degrees must be non-negative")
        if num_triangles < 0:
            raise ValueError(f"num_triangles must be non-negative, got {num_triangles}")
        self._num_triangles = int(num_triangles)
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

    def pi_distribution(self) -> np.ndarray:
        """The Chung-Lu seed's π (degree-one nodes zeroed), which rewiring
        and repair also draw from."""
        return build_pi_distribution(self._degrees, True)

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
            exclude_degree_one=True,
            memory_budget_mb=self._memory_budget_mb,
        )
        graph = seed_model.generate(rng=generator, acceptance=acceptance)
        pi = self.pi_distribution()
        # The paper applies the orphan repair to the Chung-Lu seed graph as
        # well as to the final output (Section 3.3), so the rewiring phase
        # can compensate for any triangles the repair destroys.
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
        edge_age = _edge_age_queue(graph, generator)
        tau = triangle_count(graph)
        target = self._num_triangles
        max_iterations = _MAX_ITERATION_FACTOR * max(graph.num_edges, 1)
        sampler = WeightedSampler(pi)
        self._rewire_exact(graph, _SortedAdjacency(graph), edge_age, tau,
                           target, max_iterations, sampler, generator,
                           acceptance)

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
                      edge_age: Deque[int], tau: int, target: int,
                      max_iterations: int, sampler: WeightedSampler,
                      generator: np.random.Generator,
                      acceptance: Optional[EdgeAcceptance]) -> None:
        """Algorithm 1's accept/reject chain, one proposal at a time.

        π proposals and the uniforms driving the two hops are drawn in
        blocks of up to 65 536 before the loop starts (also when there is
        nothing to rewire), then again each time a block is used up.
        ``edge_age`` must hold exactly the live edges as packed keys
        ``u * n + v`` (``u < v``), oldest first.  The graph is untouched
        until the final rows are adopted back in one pass.

        A proposal that passes the adjacency probe spends one acceptance
        coin.  A block's coins are drawn at once: the bit generator's state
        is saved, ``random(count)`` drawn and read through a counter, and on
        every way out of the block (used up, target met, iteration cap) the
        state is restored and exactly the ``used`` coins drawn again.
        ``random(k)`` yields the same doubles in the same order as ``k``
        scalar ``random()`` calls, so each coin equals the reference's and
        the generator ends where the scalar calls would leave it.
        """
        block_size = max(256, min(65536, max_iterations))
        vi_block = sampler.sample_many(block_size, generator)
        unit_block = generator.random((block_size, 2))
        if graph.num_edges == 0 or tau >= target:
            return
        n = graph.num_nodes
        ids = adjacency.ids
        rows = adjacency.lists
        sets = [set(row) for row in rows]
        filtered = acceptance is not None
        if filtered:
            # Python lists: a NumPy scalar unbox per read would dominate the
            # loop (the presampled blocks are read the same way).
            codes = acceptance.node_codes.tolist()
            matrix = acceptance.matrix.tolist()
            accept_row = [matrix[code] for code in codes]
        popleft = edge_age.popleft
        append = edge_age.append
        remaining = max_iterations
        swapped = False

        # One pass per presampled block, read as Python lists a chunk at a
        # time (an early finish builds few unread objects).  tau only moves
        # (upwards) on an accept, so the target is checked there.
        while True:
            count = min(block_size, remaining)
            remaining -= count
            if filtered:
                state = generator.bit_generator.state
                coin_block = generator.random(count)
                used = 0
            for start in range(0, count, _CHUNK):
                stop = min(start + _CHUNK, count)
                if filtered:  # a proposal spends at most one coin
                    first = used
                    coins = coin_block[first:first + stop - start].tolist()
                for vi, hop_one, hop_two in zip(
                    ids[vi_block[start:stop]].tolist(),
                    unit_block[start:stop, 0].tolist(),
                    unit_block[start:stop, 1].tolist(),
                ):
                    # Friend-of-a-friend proposal (Algorithm 1, lines 5-9):
                    # vk uniform in Γ(vi), then vj uniform in Γ(vk) \ {vi},
                    # skipping vi's slot.  The clamps guard the float
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
                    vj = row[hop]
                    if vj >= vi:
                        vj = row[hop + 1]
                    near = sets[vi]
                    if vj in near:
                        continue
                    if filtered:  # A is finite: the reference's not coin <= A
                        coin = coins[used - first]
                        used += 1
                        if coin > accept_row[vi][codes[vj]]:
                            continue

                    # Retire the oldest edge from the sets, then count the
                    # proposed edge's common neighbours without it.
                    key = popleft()
                    vq, vr = divmod(key, n)
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
                        append(vi * n + vj if vi < vj else vj * n + vi)
                        swapped = True
                        tau += cn_new - cn_old
                        if tau >= target:
                            break
                    else:
                        # Undo the removal; the retired edge becomes the
                        # youngest, so the loop cannot get stuck on one swap.
                        set_q.add(vr)
                        set_r.add(vq)
                        append(key)
                if tau >= target:
                    break
            if filtered:
                # Leave the generator where ``used`` scalar coins would.
                generator.bit_generator.state = state
                generator.random(used)
            if tau >= target or not remaining:
                break
            vi_block = sampler.sample_many(block_size, generator)
            unit_block = generator.random((block_size, 2))

        if swapped:
            # The adoption builds edge-length arrays: release the set
            # mirrors and the presampled blocks first.
            sets = vi_block = unit_block = coin_block = coins = None
            # Swaps keep the edge count, so only the edge set is adopted.
            graph._adopt_directed_keys(adjacency.directed_keys(),
                                       graph.num_edges)


def _edge_age_queue(graph: AttributedGraph,
                    generator: np.random.Generator) -> Deque[int]:
    """The edges as packed keys ``u * n + v`` in a seeded random order (the
    arrival order of exchangeable Chung-Lu draws, in distribution)."""
    sources, targets = graph.edge_arrays()
    arrival = generator.permutation(sources.size)
    return deque(pack_edge_keys(sources[arrival], targets[arrival],
                                graph.num_nodes).tolist())
