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

Under AGM's acceptance vector ``A`` (Algorithm 3, lines 9-18) a π×π
proposal ``(u, v)`` survives with probability ``A(c_u, c_v)``, where ``c``
is the node's attribute code.  Instead of flipping that coin per proposal,
the samplers draw the survivors directly from their law
``P(u, v) ∝ π_u · A(c_u, c_v) · π_v``.  That law is the acyclic path join
``R(u, a) ⋈ A(a, b) ⋈ R(b, v)`` over the codes, so one marginalisation
(``Π_a``, the π mass of code ``a``, and ``M(a, b) = Π_a · A(a, b) · Π_b``)
and a top-down draw (the code pair from ``M``, then each endpoint from π
restricted to its code) sample it exactly; ``ρ = ΣM`` is the acceptance
rate of one proposal, and ``B`` proposals yield ``Binomial(B, ρ)``
accepted pairs.  The edge-set distribution is the rejection sampler's;
only the RNG stream differs.  The per-proposal coin lives on as an oracle
in :mod:`repro.testing.reference`.

This is both a figure baseline (Figures 2 and 3) and the seed-graph
generator used inside TriCycLe and TCL.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.graphs.attributed import AttributedGraph
from repro.graphs.dtypes import storage_index_dtype, widen
from repro.models.base import EdgeAcceptance, StructuralModel
from repro.utils.arrays import sorted_membership
from repro.utils.memory import MemoryBudget, csr_bytes
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.sampling import WeightedSampler

#: Pessimistic bytes of transient state per drawn row in the vectorized
#: samplers, used to derive the byte-budgeted shard cap.  A row is one
#: endpoint pair; with an acceptance vector it is an *accepted* pair, so
#: the cap bounds the ``K`` rows a round allocates, not its proposals.
#: Per row, the accepted-pair draw holds at most five 8-byte arrays (the
#: finished endpoint block, the stub range bounds, the stub draws and the
#: widened node ids; ``tracemalloc`` measures 36 B).  The round body then
#: holds the two endpoint blocks, their lo/hi orientation, the validity
#: and run masks and the raw keys (42 B), plus, per distinct key, the key,
#: its run start and multiplicity, the overshoot scores with one
#: temporary and their partition (48 B): at most 90 B.  ``tracemalloc``
#: measures 88 B per row for single-round generations at 5k-400k nodes,
#: with and without an acceptance vector.
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
    weights = _pi_weights(degrees, exclude_degree_one)
    total = weights.sum()
    if total <= 0:
        # Degenerate case: no positive degrees.  Fall back to uniform so the
        # samplers stay well-defined; they will generate zero or few edges.
        return np.full(weights.shape, 1.0 / max(1, weights.size))
    return weights / total


def degree_pi_distribution(degrees: np.ndarray, exclude_degree_one: bool,
                           num_nodes: Optional[int] = None) -> np.ndarray:
    """:func:`build_pi_distribution` for a degree-sequence model's
    :meth:`~repro.models.base.StructuralModel.pi_distribution`:
    ``num_nodes`` defaults to, and must equal, the sequence's length."""
    if num_nodes is not None and int(num_nodes) != len(degrees):
        raise ValueError(
            f"num_nodes ({num_nodes}) must match the degree sequence length "
            f"({len(degrees)})"
        )
    return build_pi_distribution(degrees, exclude_degree_one)


def _pi_weights(degrees: np.ndarray, exclude_degree_one: bool) -> np.ndarray:
    """The unnormalised weights :func:`build_pi_distribution` divides by
    their sum: the clipped degrees, degree-one nodes zeroed if excluded."""
    weights = np.asarray(degrees, dtype=float).copy()
    if weights.ndim != 1:
        raise ValueError(f"degrees must be one-dimensional, got shape {weights.shape}")
    weights = np.clip(weights, 0.0, None)
    if exclude_degree_one:
        adjusted = np.where(np.asarray(degrees) == 1, 0.0, weights)
        if adjusted.sum() > 0:
            weights = adjusted
    return weights


class ChungLuModel(StructuralModel):
    """Fast Chung-Lu generator with optional bias correction.

    Endpoints are drawn in blocks through
    :class:`~repro.utils.sampling.WeightedSampler`, and self-loops and
    duplicate proposals are discarded with vectorized key operations.  With
    an acceptance vector, each round draws only the accepted pairs, from
    their exact law (see the module docstring), so the cost of a round
    follows the rows it keeps rather than the proposals it would have
    rejected.

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
        Safety bound: at most ``max_attempt_factor * m`` π×π proposals are
        spent, counted before the acceptance filter, so a degree sequence
        whose distinct pairs saturate (duplicates and self-loops only)
        cannot hang the generator.
    memory_budget_mb:
        Optional byte budget for generation.  When set (or when the
        ``REPRO_MEMORY_BUDGET_MB`` environment variable provides a default),
        the vectorized samplers draw their rows in shards whose transient
        footprint fits the budget, and the final edge store is admitted
        against the budget before sampling begins (raising
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

    def pi_distribution(self, num_nodes: Optional[int] = None) -> np.ndarray:
        """The π endpoint-sampling distribution for this degree sequence."""
        return degree_pi_distribution(self._degrees, self._exclude_degree_one,
                                      num_nodes)

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

        max_attempts = self._max_attempt_factor * max(target_edges, 1)
        # Admit the durable output before any sampling: the accepted key
        # arrays (concat + sort scratch, ~4 int64 copies at peak) plus the
        # CSR the result graph will own (2m directed entries), and
        # with an acceptance vector the stub table (at most 2m node ids).
        # The shard cap below bounds the *transient* per-round footprint;
        # this bounds what generation holds for its whole length.
        durable = 4 * 8 * target_edges + csr_bytes(n, target_edges)
        if acceptance is not None:
            durable += int(self._degrees.sum()) \
                * storage_index_dtype(n).itemsize
        self._memory_budget.admit("chung_lu.generate", durable)

        pairs = self._pair_source(acceptance)
        if self._bias_correction:
            keys = self._sample_corrected(
                n, pairs, target_edges, max_attempts, generator
            )
        else:
            keys = self._sample_plain(n, pairs, target_edges, generator)
        return AttributedGraph._from_canonical_keys(n, keys, num_attributes)

    # ------------------------------------------------------------------
    # Internal sampling strategies (batched fast paths)
    # ------------------------------------------------------------------
    def _pair_source(self, acceptance: Optional[EdgeAcceptance]
                     ) -> "_Proposals | _AcceptedPairs":
        """The pair helper both strategies draw their rows through."""
        if acceptance is None:
            return _Proposals(self.pi_distribution())
        return _AcceptedPairs(
            _pi_weights(self._degrees, self._exclude_degree_one), acceptance
        )

    @staticmethod
    def _dedupe_sorted(keys: np.ndarray) -> np.ndarray:
        """Sort ``keys`` in place and drop duplicates (manual, as
        ``np.unique`` is measurably slower than a plain sort here)."""
        keys.sort()
        if keys.size < 2:
            return keys
        return keys[np.concatenate(([True], keys[1:] != keys[:-1]))]

    def _sample_corrected(self, n: int,
                          pairs: "_Proposals | _AcceptedPairs",
                          target_edges: int, max_attempts: int,
                          generator: np.random.Generator) -> np.ndarray:
        """cFCL: keep sampling until ``target_edges`` distinct edges exist.

        Each round spends ``B`` proposals and draws the rows they yield
        through :meth:`_pair_source`: all ``B`` π×π pairs without an
        acceptance vector (endpoint blocks from
        :meth:`WeightedSampler.sample_many`, the π distribution preprocessed
        once), and ``K ~ Binomial(B, ρ)`` pairs from the accepted law with
        one.  ``B = ⌈oversample(shortfall) / ρ⌉``, so a round expects the
        same accepted rows whatever the acceptance rate, and ``attempts``
        still counts proposals against ``max_attempts``.  Rows are
        deduplicated on the encoded keys ``min * n + max`` and self-loops
        dropped.  Cross-round collision tracking (the sorted array of the
        keys accepted so far) is only built if the first round leaves a
        shortfall.  When a batch overshoots the target, the
        admitted subset is drawn *weighted by proposal multiplicity*
        (Efraimidis–Spirakis weighted sampling without replacement): the
        first occurrences of distinct keys in a uniformly ordered multiset
        follow the Plackett–Luce distribution with multiplicity weights, so
        this reproduces a per-edge loop's "first ``target`` distinct
        edges by arrival" distribution — a uniform subset would
        under-represent high-π edges.  Returns the unique canonical edge
        keys.

        Under a memory budget each round's rows are drawn in shards whose
        transient working set fits the remaining bytes; the shard cap also
        bounds the expected rows a round asks for.  When the cap does not
        bind, the round schedule — and hence the RNG stream and output — is
        bit-identical to the unbudgeted path.  A binding cap just splits
        the work, which the cross-round collision tracking already makes
        exact.
        """
        shard_cap = self._memory_budget.shard_rows(
            _SAMPLE_ROW_BYTES, minimum=2048
        )
        seen: Optional[np.ndarray] = None  # sorted accepted keys
        accepted = []
        count = 0
        attempts = 0
        pending = 0  # rows owed by proposals already counted in attempts
        while count < target_edges and (pending or attempts < max_attempts):
            remaining = target_edges - count
            if not pending:
                # Oversample the shortfall so self-loops and collisions
                # rarely force a refill round: 2x when the shortfall is
                # small (a second round's fixed cost would dominate), 1.4x
                # for large batches.
                oversampled = 2 * remaining if remaining < 8192 \
                    else (remaining * 7) // 5
                wanted = min(max(2048, oversampled), shard_cap)
                proposals = max_attempts - attempts
                # Spend the proposals whose expected rows cover ``wanted``,
                # or every attempt left when that is fewer (also at ρ = 0,
                # and at rates so small that wanted / ρ overflows).
                if wanted < pairs.rate * proposals:
                    proposals = min(proposals,
                                    math.ceil(wanted / pairs.rate))
                pending = pairs.rows(proposals, generator)
                attempts += proposals
            batch = min(pending, shard_cap)
            if batch == 0:
                continue
            pending -= batch
            us, vs = pairs.draw(batch, generator)
            lo = np.minimum(us, vs)
            hi = np.maximum(us, vs)
            valid = lo != hi
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
                    seen = np.sort(np.concatenate(accepted))
                fresh_mask = ~sorted_membership(seen, keys)
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
                fresh_sorted = np.sort(fresh)
                seen = np.insert(seen, np.searchsorted(seen, fresh_sorted),
                                 fresh_sorted)
            accepted.append(fresh)
            count += fresh.size
        if not accepted:
            # int64: canonical edge-key array (u * n + v packing width).
            return np.empty(0, dtype=np.int64)
        return np.concatenate(accepted) if len(accepted) > 1 else accepted[0]

    def _sample_plain(self, n: int, pairs: "_Proposals | _AcceptedPairs",
                      target_edges: int, generator: np.random.Generator
                      ) -> np.ndarray:
        """Classical FCL: spend exactly ``target_edges`` proposals, discard
        collisions.

        The proposals' rows (all of them, or the ``Binomial(m, ρ)`` accepted
        ones) come from :meth:`_pair_source`.  Returns the unique canonical
        edge keys.  Under a memory budget the rows are drawn in byte-bounded
        shards; a single full-size shard (the unbudgeted case) consumes the
        RNG exactly as the one-pass implementation did, and shards of
        i.i.d. rows preserve the sampling distribution.
        """
        shard_cap = self._memory_budget.shard_rows(
            _SAMPLE_ROW_BYTES, minimum=2048, cap=target_edges
        )
        rows = pairs.rows(target_edges, generator)
        chunks = []
        while rows:
            shard = min(shard_cap, rows)
            rows -= shard
            us, vs = pairs.draw(shard, generator)
            lo = np.minimum(us, vs)
            hi = np.maximum(us, vs)
            valid = lo != hi
            chunks.append(lo[valid] * n + hi[valid])
        if not chunks:
            # int64: canonical edge-key array (u * n + v packing width).
            return np.empty(0, dtype=np.int64)
        raw = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
        return self._dedupe_sorted(raw)


class _Proposals:
    """Rows of π×π proposals with no acceptance filter: one per proposal."""

    #: Expected rows per proposal.
    rate = 1.0

    def __init__(self, pi: np.ndarray) -> None:
        self._sampler = WeightedSampler(pi)

    def rows(self, proposals: int, generator: np.random.Generator) -> int:
        """How many rows ``proposals`` proposals yield."""
        return proposals

    def draw(self, rows: int, generator: np.random.Generator
             ) -> Tuple[np.ndarray, np.ndarray]:
        """Draw ``rows`` endpoint pairs (unordered, self-loops included)."""
        # Only one endpoint block needs shuffling: pairing a sorted multiset
        # against an independently shuffled one is a uniform random
        # matching, identical in distribution to i.i.d. pairs.
        us = self._sampler.sample_many(rows, generator, shuffle=False)
        vs = self._sampler.sample_many(rows, generator)
        return us, vs


class _AcceptedPairs:
    """Rows of the π×π proposals an :class:`EdgeAcceptance` accepts.

    A row is drawn from ``P(u, v) = π_u · A(c_u, c_v) · π_v / ρ`` top-down:
    the code pair ``(a, b)`` from ``M / ρ``, then ``u`` from π restricted
    to code ``a`` and ``v`` from π restricted to code ``b``, independently.
    ``B`` proposals yield ``Binomial(B, ρ)`` rows.

    π is proportional to integer weights (the degrees, with degree-one
    nodes zeroed under ``exclude_degree_one``), so π restricted to a code
    is a uniform draw from that code's *stubs*: a table holding each node
    once per unit of weight, grouped by code.  An endpoint is then one
    bounded integer and one gather, whatever the number of codes.  Codes
    with no nodes or no weight own no stubs and have ``M = 0`` in their row
    and column, so they are never drawn.  Measured on a 52k-row draw at
    pokec-0.01, this is 1.9 ms against 2.4 ms for the unfiltered π×π
    draw, 4.1 ms for per-code :class:`WeightedSampler` draws and 10.6 ms
    for inverting a code-grouped cumulative π with ``searchsorted``.
    """

    def __init__(self, weights: np.ndarray, acceptance: EdgeAcceptance) -> None:
        codes = acceptance.node_codes
        q = acceptance.matrix.shape[0]
        counts = weights.astype(np.int64)
        order = np.argsort(codes, kind="stable")
        index_dtype = storage_index_dtype(codes.size)
        self._stubs = np.repeat(order.astype(index_dtype), counts[order])
        self._stub_counts = np.bincount(codes, weights=counts, minlength=q
                                        ).astype(np.int64)
        self._stub_starts = np.cumsum(self._stub_counts) - self._stub_counts
        mass = self._stub_counts / self._stubs.size
        joint = mass[:, None] * acceptance.matrix * mass[None, :]
        total = float(joint.sum())
        # Σ M can exceed one by an ulp (A all ones); ρ is a probability.
        self.rate = min(total, 1.0)
        self._cells = joint.ravel() / total if total > 0 else None
        # Code pair of each flattened (a, b) cell, row-major.
        self._cell_a, self._cell_b = np.divmod(np.arange(q * q), q)

    def rows(self, proposals: int, generator: np.random.Generator) -> int:
        """How many of ``proposals`` proposals are accepted."""
        return int(generator.binomial(proposals, self.rate))

    def draw(self, rows: int, generator: np.random.Generator
             ) -> Tuple[np.ndarray, np.ndarray]:
        """Draw ``rows`` accepted pairs (unordered, self-loops included)."""
        counts = generator.multinomial(rows, self._cells)
        us = self._endpoints(self._cell_a, counts, generator)
        vs = self._endpoints(self._cell_b, counts, generator)
        return us, vs

    def _endpoints(self, cell_codes: np.ndarray, counts: np.ndarray,
                   generator: np.random.Generator) -> np.ndarray:
        """One node per row, from π restricted to its cell's code.

        Rows come grouped by cell, so each row's stub range is a ``repeat``
        of its cell's, not a per-row gather.
        """
        starts = np.repeat(self._stub_starts[cell_codes], counts)
        ends = starts + np.repeat(self._stub_counts[cell_codes], counts)
        return widen(self._stubs[generator.integers(starts, ends)])
