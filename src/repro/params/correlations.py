"""The attribute–edge correlation distribution Θ_F.

Θ_F(y) is the fraction of edges whose endpoint attribute-vector pair encodes
to the edge configuration ``y`` (Section 2.2).  This is the parameter that
captures homophily.  Privately it is hard: changing the attribute vector of a
degree-d node moves d units of mass between configuration counts, so the
global sensitivity of the count vector is ``2 (n - 1)`` in the worst case.

The paper studies four estimators, all provided here:

* :func:`learn_correlations_dp` — **EdgeTruncation** (Algorithm 4): truncate
  the graph to maximum degree ``k`` with µ(G, k) and add ``Lap(2k/ε)`` noise;
  Proposition 1 shows the sensitivity of the composed transform is exactly
  ``2k``.  This is the paper's recommended approach.
* :func:`learn_correlations_smooth` — the smooth-sensitivity approach of
  Appendix B.1 ((ε, δ)-DP).
* :func:`learn_correlations_sample_aggregate` — the sample-and-aggregate
  approach of Appendix B.2.
* :func:`learn_correlations_naive_laplace` — the naive Laplace baseline with
  global sensitivity ``2n - 2``.

The exact (non-private) measurement is :func:`learn_correlations`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.attributes.encoding import EdgeConfigurationEncoder
from repro.graphs.attributed import AttributedGraph
from repro.graphs.truncation import (
    default_truncation_parameter,
    truncated_edge_arrays,
)
from repro.privacy.accountant import EpsilonLike, charge_epsilon
from repro.privacy.mechanisms import laplace_noise, normalize_counts
from repro.privacy.sensitivity import (
    beta_for_smooth_sensitivity,
    smooth_sensitivity_degree_bounded,
    smooth_sensitivity_laplace_noise,
)
from repro.utils.memory import MemoryBudget
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_probability_vector

#: Pessimistic transient bytes per edge while counting configurations: the
#: two gathered endpoint-code blocks, the arithmetic intermediates of
#: ``encode_codes_array``, and the edge-code block itself (all int64).
_COUNT_ROW_BYTES = 64


@dataclass(frozen=True)
class CorrelationDistribution:
    """The learned Θ_F: a distribution over edge attribute configurations.

    Attributes
    ----------
    num_attributes:
        The attribute dimension ``w``.
    probabilities:
        Array of length ``C(2^w + 1, 2)`` summing to one; index ``y`` holds
        Θ_F(y), in the edge-configuration order of
        :class:`~repro.attributes.encoding.EdgeConfigurationEncoder`.
    """

    num_attributes: int
    probabilities: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        encoder = EdgeConfigurationEncoder(self.num_attributes)
        probs = check_probability_vector(self.probabilities, "probabilities")
        if probs.size != encoder.num_configurations:
            raise ValueError(
                f"probabilities must have length {encoder.num_configurations} for "
                f"w={self.num_attributes}, got {probs.size}"
            )
        object.__setattr__(self, "probabilities", probs)

    @property
    def encoder(self) -> EdgeConfigurationEncoder:
        """Encoder mapping endpoint attribute vectors to edge codes."""
        return EdgeConfigurationEncoder(self.num_attributes)

    def probability_of_pair(self, vector_a, vector_b) -> float:
        """Return Θ_F for a specific unordered pair of attribute vectors."""
        return float(self.probabilities[self.encoder.encode(vector_a, vector_b)])


def uniform_correlation_distribution(num_attributes: int) -> CorrelationDistribution:
    """The data-independent baseline: all edge configurations equally likely.

    Section 5.2 uses this as the reference point for Θ_F error rates ("set
    all correlation probabilities to be equal").
    """
    encoder = EdgeConfigurationEncoder(num_attributes)
    size = encoder.num_configurations
    return CorrelationDistribution(num_attributes, np.full(size, 1.0 / size))


def connection_counts(graph: AttributedGraph) -> np.ndarray:
    """The exact edge-configuration counts Q_F for ``graph``."""
    return _configuration_counts(graph, *graph.edge_arrays())


def truncated_connection_counts(graph: AttributedGraph, k: int) -> np.ndarray:
    """Q_F of µ(G, k)'s edges, before noise (Proposition 1's transform)."""
    return _configuration_counts(graph, *truncated_edge_arrays(graph, k))


def _configuration_counts(graph: AttributedGraph, us: np.ndarray,
                          vs: np.ndarray) -> np.ndarray:
    """Edge-configuration counts of the edges ``(us, vs)`` of ``graph``.

    Under a memory budget (``REPRO_MEMORY_BUDGET_MB``) the counting pass
    runs over byte-bounded edge blocks; per-block ``bincount`` results are
    summed exactly, so the chunked pass is bit-identical to the one-shot
    pass for every block size.
    """
    encoder = EdgeConfigurationEncoder(graph.num_attributes)
    node_codes = encoder.node_encoder.encode_matrix(graph.attributes)
    if us.size == 0:
        return np.zeros(encoder.num_configurations, dtype=float)
    block = MemoryBudget.resolve().shard_rows(
        _COUNT_ROW_BYTES, minimum=4096, cap=us.size
    )
    counts = np.zeros(encoder.num_configurations, dtype=np.int64)
    for start in range(0, us.size, block):
        chunk_us = us[start:start + block]
        chunk_vs = vs[start:start + block]
        edge_codes = encoder.encode_codes_array(
            node_codes[chunk_us], node_codes[chunk_vs]
        )
        counts += np.bincount(
            edge_codes, minlength=encoder.num_configurations
        )
    return counts.astype(float)


def connection_probabilities(graph: AttributedGraph) -> np.ndarray:
    """Exact Θ_F probabilities (counts normalised by the edge count)."""
    counts = connection_counts(graph)
    total = counts.sum()
    if total == 0:
        return np.full(counts.shape, 1.0 / counts.size)
    return counts / total


def learn_correlations(graph: AttributedGraph) -> CorrelationDistribution:
    """Measure Θ_F exactly (non-private)."""
    return CorrelationDistribution(graph.num_attributes, connection_probabilities(graph))


def learn_correlations_dp(graph: AttributedGraph, epsilon: EpsilonLike,
                          truncation_k: Optional[int] = None,
                          rng: RngLike = None) -> CorrelationDistribution:
    """LearnCorrelationsDP (Algorithm 4): EdgeTruncation estimate of Θ_F.

    Parameters
    ----------
    graph:
        Input attributed graph.
    epsilon:
        Privacy budget for this release.
    truncation_k:
        Degree bound ``k`` for the truncation operator; defaults to the
        data-independent heuristic ``k = n^(1/3)`` (Section 3.1), which does
        not consume budget because ``n`` is public.
    rng:
        Seed or generator.

    Notes
    -----
    The composed transform "truncate, then count" has global sensitivity
    ``2k`` (Proposition 1), so ``Lap(2k/ε)`` noise per count yields ε-DP
    (Theorem 7).  The noisy counts are floored at zero and normalised,
    which is post-processing.
    """
    epsilon = charge_epsilon(epsilon)
    if truncation_k is None:
        truncation_k = default_truncation_parameter(graph.num_nodes)
    if truncation_k < 2:
        raise ValueError(
            f"truncation_k must be >= 2 so Proposition 1 applies, got {truncation_k}"
        )

    counts = truncated_connection_counts(graph, truncation_k)
    sensitivity = 2.0 * truncation_k
    noisy = counts + laplace_noise(sensitivity / epsilon, size=counts.shape, rng=rng)
    # Clamp below at zero before normalising (Algorithm 4).  No upper clamp is
    # applied: edge-configuration counts legitimately exceed n on graphs with
    # m > n, and any data-independent clamp is post-processing anyway.
    probabilities = normalize_counts(noisy, floor=0.0)
    return CorrelationDistribution(graph.num_attributes, probabilities)


def learn_correlations_smooth(graph: AttributedGraph, epsilon: EpsilonLike,
                              delta: float = 1e-6,
                              rng: RngLike = None) -> CorrelationDistribution:
    """Smooth-sensitivity estimate of Θ_F (Appendix B.1, (ε, δ)-DP).

    The local sensitivity of Q_F is ``2 d_max`` (Lemma 3); the local
    sensitivity at distance ``t`` is at most ``min(2 d_max + 2t, 2n - 2)``
    (Proposition 4).  Laplace noise of scale ``2 S / ε`` is added to every
    count, where ``S`` is the β-smooth sensitivity with
    ``β = ε / (2 ln(1/δ))``.
    """
    epsilon = charge_epsilon(epsilon)
    counts = connection_counts(graph)
    degrees = graph.degrees()
    d_max = int(degrees.max()) if degrees.size else 0
    local_sensitivity = 2.0 * d_max
    hard_cap = max(local_sensitivity, 2.0 * graph.num_nodes - 2.0)
    beta = beta_for_smooth_sensitivity(epsilon, delta)
    smooth = smooth_sensitivity_degree_bounded(local_sensitivity, beta, hard_cap)
    noise = smooth_sensitivity_laplace_noise(smooth, epsilon, size=counts.shape, rng=rng)
    probabilities = normalize_counts(counts + noise, floor=0.0)
    return CorrelationDistribution(graph.num_attributes, probabilities)


def learn_correlations_sample_aggregate(graph: AttributedGraph, epsilon: EpsilonLike,
                                        group_size: Optional[int] = None,
                                        rng: RngLike = None
                                        ) -> CorrelationDistribution:
    """Sample-and-aggregate estimate of Θ_F (Appendix B.2).

    The nodes are randomly partitioned into ``t = n / group_size`` disjoint
    groups; Θ_F is measured on each induced subgraph; the per-group
    probability vectors are averaged and perturbed with Laplace noise of
    scale ``(2/t) / ε`` — changing one node's attributes affects a single
    subgraph's probability vector by at most 2 in L1, hence the average by
    ``2/t``.

    Parameters
    ----------
    group_size:
        Number of nodes per group ``k``.  Defaults to ``max(2 w^2, n^(1/2))``
        rounded, a compromise between estimation error (larger groups
        better) and perturbation error (more groups better).
    """
    epsilon = charge_epsilon(epsilon)
    generator = ensure_rng(rng)
    n = graph.num_nodes
    encoder = EdgeConfigurationEncoder(graph.num_attributes)
    size = encoder.num_configurations

    if group_size is None:
        group_size = max(8, int(round(np.sqrt(max(n, 1)))))
    group_size = max(2, min(group_size, max(2, n)))
    num_groups = max(1, n // group_size)

    permutation = generator.permutation(n)
    groups = np.array_split(permutation, num_groups)

    averages = np.zeros(size, dtype=float)
    for group in groups:
        subgraph = graph.induced_subgraph([int(v) for v in group])
        averages += connection_probabilities(subgraph)
    averages /= len(groups)

    sensitivity = 2.0 / len(groups)
    noisy = averages + laplace_noise(sensitivity / epsilon, size=size, rng=generator)
    probabilities = normalize_counts(noisy, floor=0.0, ceiling=1.0)
    return CorrelationDistribution(graph.num_attributes, probabilities)


def learn_correlations_naive_laplace(graph: AttributedGraph, epsilon: EpsilonLike,
                                     rng: RngLike = None) -> CorrelationDistribution:
    """Naive Laplace baseline: noise calibrated to the worst case ``2n - 2``.

    Included because Appendix B.3 uses it as the reference line that any
    useful approach must beat.
    """
    epsilon = charge_epsilon(epsilon)
    counts = connection_counts(graph)
    sensitivity = max(1.0, 2.0 * graph.num_nodes - 2.0)
    noisy = counts + laplace_noise(sensitivity / epsilon, size=counts.shape, rng=rng)
    probabilities = normalize_counts(noisy, floor=0.0)
    return CorrelationDistribution(graph.num_attributes, probabilities)
