"""The Chung-Lu random graph model and its fast implementation (FCL / cFCL).

In the Chung-Lu (CL) model every node is assigned a desired degree and edges
are sampled with probability proportional to the product of the endpoint
degrees, which reproduces the expected degree sequence.  The fast variant
(FCL, Pinar et al.) samples endpoints from the π distribution — node ``i``
with probability ``d_i / 2m`` — and inserts the resulting edge; repeated
edges and self-loops are discarded and resampled, and the bias-corrected
variant (cFCL) compensates for the resulting under-representation of
low-degree nodes by continuing to sample until the target number of distinct
edges is reached while tracking residual degree demand.

This is both a figure baseline (Figures 2 and 3) and the seed-graph
generator used inside TriCycLe and TCL.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graphs.attributed import AttributedGraph
from repro.models.base import EdgeAcceptance, StructuralModel
from repro.utils.membership import DynamicKeySet
from repro.utils.memory import MemoryBudget, csr_bytes
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.sampling import WeightedSampler

#: Pessimistic bytes of transient state per drawn endpoint pair in the
#: vectorized samplers: two int64 endpoint blocks, the lo/hi canonical
#: orientation, the validity mask, an acceptance coin, and the raw key plus
#: its sort scratch.  Used to derive the byte-budgeted shard cap.
_SAMPLE_ROW_BYTES = 96


def build_pi_distribution(degrees: np.ndarray,
                          exclude_degree_one: bool = False) -> np.ndarray:
    """Build the π node-sampling distribution from a desired degree sequence.

    ``π(i) ∝ d_i``.  When ``exclude_degree_one`` is set (the TriCycLe orphan
    extension), nodes with desired degree exactly one receive zero weight —
    they are wired up later by the post-processing step instead.  If every
    node would be excluded, the plain degree-proportional distribution is
    returned so generation can still proceed.
    """
    weights = np.asarray(degrees, dtype=float).copy()
    if weights.ndim != 1:
        raise ValueError(f"degrees must be one-dimensional, got shape {weights.shape}")
    weights = np.clip(weights, 0.0, None)
    if exclude_degree_one:
        adjusted = np.where(np.asarray(degrees) == 1, 0.0, weights)
        if adjusted.sum() > 0:
            weights = adjusted
    total = weights.sum()
    if total <= 0:
        # Degenerate case: no positive degrees.  Fall back to uniform so the
        # samplers stay well-defined; they will generate zero or few edges.
        return np.full(weights.shape, 1.0 / max(1, weights.size))
    return weights / total


class ChungLuModel(StructuralModel):
    """Fast Chung-Lu generator with optional bias correction.

    Endpoints are drawn in blocks through
    :class:`~repro.utils.sampling.WeightedSampler`, self-loops and duplicate
    proposals are discarded with vectorized key operations, and acceptance
    probabilities are applied in bulk.

    Parameters
    ----------
    degrees:
        Desired degree sequence (one entry per node of the generated graph).
    bias_correction:
        When true (default, the "cFCL" variant), sampling continues until the
        target number of *distinct* edges has been inserted; when false, the
        classical FCL behaviour of drawing exactly ``m`` endpoint pairs and
        discarding collisions is used, which under-generates edges on skewed
        degree sequences.
    max_attempt_factor:
        Safety bound: at most ``max_attempt_factor * m`` endpoint pairs are
        drawn, so pathological acceptance probabilities cannot hang the
        generator.
    memory_budget_mb:
        Optional byte budget for generation.  When set (or when the
        ``REPRO_MEMORY_BUDGET_MB`` environment variable provides a default),
        the vectorized samplers draw endpoint blocks in shards whose
        transient footprint fits the budget, and the final edge store is
        admitted against the budget before sampling begins (raising
        :class:`~repro.utils.memory.MemoryBudgetError` when it cannot fit).
        When the shard cap does not bind, the sampling schedule — and hence
        the generated graph for a given seed — is bit-identical to the
        unbudgeted path.
    """

    def __init__(self, degrees: np.ndarray, bias_correction: bool = True,
                 exclude_degree_one: bool = False,
                 max_attempt_factor: int = 50,
                 memory_budget_mb: Optional[int] = None) -> None:
        self._degrees = np.asarray(degrees, dtype=np.int64)
        if self._degrees.ndim != 1:
            raise ValueError("degrees must be one-dimensional")
        if np.any(self._degrees < 0):
            raise ValueError("degrees must be non-negative")
        if max_attempt_factor < 1:
            raise ValueError("max_attempt_factor must be >= 1")
        self._bias_correction = bool(bias_correction)
        self._exclude_degree_one = bool(exclude_degree_one)
        self._max_attempt_factor = int(max_attempt_factor)
        self._memory_budget = MemoryBudget.resolve(memory_budget_mb)

    @property
    def degrees(self) -> np.ndarray:
        """The desired degree sequence."""
        return self._degrees

    @property
    def target_num_edges(self) -> int:
        """Target number of edges, ``m = sum(d_i) / 2``."""
        return int(self._degrees.sum() // 2)

    def effective_target_edges(self) -> int:
        """Target edge count after the degree-one exclusion, ``m - |N_1|``.

        The TriCycLe orphan extension generates ``m - |N_1|`` seed edges and
        wires the degree-one nodes up in post-processing (Section 3.3).
        """
        target = self.target_num_edges
        if self._exclude_degree_one:
            degree_one = int(np.count_nonzero(self._degrees == 1))
            target = max(0, target - degree_one)
        return target

    def pi_distribution(self) -> np.ndarray:
        """The π endpoint-sampling distribution for this degree sequence."""
        return build_pi_distribution(
            self._degrees, exclude_degree_one=self._exclude_degree_one
        )

    def generate(self, num_nodes: Optional[int] = None, rng: RngLike = None,
                 acceptance: Optional[EdgeAcceptance] = None) -> AttributedGraph:
        """Generate a Chung-Lu graph.

        Parameters
        ----------
        num_nodes:
            Number of nodes; defaults to the length of the degree sequence
            and must match it when provided.
        rng:
            Seed or generator.
        acceptance:
            Optional attribute-dependent acceptance probabilities (AGM).

        Returns
        -------
        AttributedGraph
            A simple graph with approximately the desired degree sequence and
            no attributes set.
        """
        n = self._degrees.size if num_nodes is None else int(num_nodes)
        if n != self._degrees.size:
            raise ValueError(
                f"num_nodes ({n}) must match the degree sequence length "
                f"({self._degrees.size})"
            )
        generator = ensure_rng(rng)
        num_attributes = acceptance.num_attributes if acceptance is not None else 0
        target_edges = self.effective_target_edges()
        if n < 2 or target_edges == 0:
            return AttributedGraph(n, num_attributes)

        pi = self.pi_distribution()
        max_attempts = self._max_attempt_factor * max(target_edges, 1)
        # Admit the durable output before any sampling: the accepted key
        # arrays (concat + sort scratch, ~4 int64 copies at peak) plus the
        # base CSR the result graph will own (2m directed entries).  The
        # shard cap below bounds the *transient* per-round footprint; this
        # bounds what generation leaves resident.
        self._memory_budget.admit(
            "chung_lu.generate",
            4 * 8 * target_edges + csr_bytes(n, target_edges),
        )

        if self._bias_correction:
            keys = self._sample_corrected(
                n, pi, target_edges, max_attempts, generator, acceptance
            )
        else:
            keys = self._sample_plain(
                n, pi, target_edges, generator, acceptance
            )
        return AttributedGraph._from_canonical_keys(n, keys, num_attributes)

    # ------------------------------------------------------------------
    # Internal sampling strategies (batched fast paths)
    # ------------------------------------------------------------------
    @staticmethod
    def _dedupe_sorted(keys: np.ndarray) -> np.ndarray:
        """Sort ``keys`` in place and drop duplicates (manual, as
        ``np.unique`` is measurably slower than a plain sort here)."""
        keys.sort()
        if keys.size < 2:
            return keys
        return keys[np.concatenate(([True], keys[1:] != keys[:-1]))]

    def _sample_corrected(self, n: int, pi: np.ndarray, target_edges: int,
                          max_attempts: int, generator: np.random.Generator,
                          acceptance: Optional[EdgeAcceptance]) -> np.ndarray:
        """cFCL: keep sampling until ``target_edges`` distinct edges exist.

        Endpoint blocks come from :meth:`WeightedSampler.sample_many` (the π
        distribution is preprocessed once, not per batch), proposals are
        deduplicated on the encoded keys ``min * n + max``, and acceptance
        probabilities are evaluated in bulk with one coin per drawn pair —
        matching a per-edge loop's per-attempt accept/reject semantics.
        Cross-round collision tracking (a partitioned key bitmap within its
        byte budget, a sorted key array otherwise — see
        :mod:`repro.utils.membership`) is only instantiated if the first
        round leaves a shortfall.  When a batch overshoots the target, the
        admitted subset is drawn *weighted by proposal multiplicity*
        (Efraimidis–Spirakis weighted sampling without replacement): the
        first occurrences of distinct keys in a uniformly ordered multiset
        follow the Plackett–Luce distribution with multiplicity weights, so
        this reproduces a per-edge loop's "first ``target`` distinct
        edges by arrival" distribution — a uniform subset would
        under-represent high-π edges.  Returns the unique canonical edge
        keys.

        Under a memory budget each round's batch is additionally capped so
        its transient working set (endpoint blocks, masks, coins, raw keys)
        fits the remaining bytes; when the cap does not bind the round
        schedule — and hence the RNG stream and output — is bit-identical
        to the unbudgeted path.  A binding cap just splits rounds, which
        the cross-round collision tracking already makes exact.
        """
        sampler = WeightedSampler(pi)
        shard_cap = self._memory_budget.shard_rows(
            _SAMPLE_ROW_BYTES, minimum=2048
        )
        seen: Optional[DynamicKeySet] = None
        seen_budget = self._memory_budget.remaining_bytes()
        accepted = []
        count = 0
        attempts = 0
        while count < target_edges and attempts < max_attempts:
            remaining = target_edges - count
            # Oversample the shortfall so self-loops and collisions rarely
            # force a refill round: 2x when the shortfall is small (a second
            # round's fixed cost would dominate), 1.4x for large batches.
            oversampled = 2 * remaining if remaining < 8192 \
                else (remaining * 7) // 5
            batch = min(max(2048, oversampled), max_attempts - attempts,
                        shard_cap)
            # Only one endpoint block needs shuffling: pairing a sorted
            # multiset against an independently shuffled one is a uniform
            # random matching, identical in distribution to i.i.d. pairs.
            us = sampler.sample_many(batch, generator, shuffle=False)
            vs = sampler.sample_many(batch, generator)
            attempts += batch
            lo = np.minimum(us, vs)
            hi = np.maximum(us, vs)
            valid = lo != hi
            if acceptance is not None:
                coins = generator.random(batch)
                valid &= coins <= acceptance.pair_probabilities(us, vs)
            raw = lo[valid] * n + hi[valid]
            if raw.size == 0:
                continue
            raw.sort()
            first = np.concatenate(([True], raw[1:] != raw[:-1]))
            keys = raw[first]
            boundaries = np.flatnonzero(first)
            multiplicities = np.diff(
                np.concatenate((boundaries, [raw.size]))
            )
            if accepted:
                if seen is None:
                    # The bitmap accelerator inside the key set honours the
                    # memory budget; its sorted-array fallback answers the
                    # same membership queries, so results are unaffected.
                    seen = DynamicKeySet(
                        np.sort(np.concatenate(accepted)),
                        budget_bytes=seen_budget,
                    )
                fresh_mask = ~seen.contains(keys)
                fresh = keys[fresh_mask]
                fresh_weights = multiplicities[fresh_mask]
            else:
                fresh = keys
                fresh_weights = multiplicities
            if fresh.size > remaining:
                scores = -np.log(generator.random(fresh.size)) / fresh_weights
                fresh = fresh[np.argpartition(scores, remaining - 1)[:remaining]]
            if fresh.size == 0:
                continue
            if seen is not None:
                seen.add(np.sort(fresh))
            accepted.append(fresh)
            count += fresh.size
        if not accepted:
            # int64: canonical edge-key array (u * n + v packing width).
            return np.empty(0, dtype=np.int64)
        return np.concatenate(accepted) if len(accepted) > 1 else accepted[0]

    def _sample_plain(self, n: int, pi: np.ndarray, target_edges: int,
                      generator: np.random.Generator,
                      acceptance: Optional[EdgeAcceptance]) -> np.ndarray:
        """Classical FCL: draw exactly ``target_edges`` pairs, discard collisions.

        Returns the unique canonical edge keys.  Under a memory budget the
        pairs are drawn in byte-bounded shards; a single full-size shard
        (the unbudgeted case) consumes the RNG exactly as the one-pass
        implementation did, and shard-wise pairing of a sorted endpoint
        block against an independently shuffled one remains a uniform
        random matching, so sharding preserves the sampling distribution.
        """
        sampler = WeightedSampler(pi)
        shard_cap = self._memory_budget.shard_rows(
            _SAMPLE_ROW_BYTES, minimum=2048, cap=target_edges
        )
        chunks = []
        drawn = 0
        while drawn < target_edges:
            shard = min(shard_cap, target_edges - drawn)
            us = sampler.sample_many(shard, generator, shuffle=False)
            vs = sampler.sample_many(shard, generator)
            lo = np.minimum(us, vs)
            hi = np.maximum(us, vs)
            valid = lo != hi
            if acceptance is not None:
                coins = generator.random(shard)
                valid &= coins <= acceptance.pair_probabilities(us, vs)
            chunks.append(lo[valid] * n + hi[valid])
            drawn += shard
        raw = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
        return self._dedupe_sorted(raw)
