"""The node attribute distribution Θ_X.

Θ_X(y) is the fraction of nodes whose attribute vector encodes to ``y``
(Section 2.2).  Privately, the task is a histogram over disjoint node sets:
changing the attributes of one node moves one unit of mass between two
cells, so the global sensitivity is 2 and the Laplace mechanism applies
directly (Section 3.2, Algorithm 5 / Theorem 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.attributes.encoding import AttributeEncoder
from repro.graphs.attributed import AttributedGraph
from repro.privacy.accountant import EpsilonLike, charge_epsilon
from repro.privacy.mechanisms import laplace_noise, normalize_counts
from repro.utils.memory import MemoryBudget
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_probability_vector

#: Global sensitivity of the attribute-configuration histogram (Theorem 8).
ATTRIBUTE_HISTOGRAM_SENSITIVITY = 2.0

#: Pessimistic transient bytes per node row while counting configurations:
#: ``encode_matrix`` materialises the row block as int64, the weighted
#: product, and the code block (scaled by ``w`` in the caller).
_ENCODE_ROW_BYTES = 24


@dataclass(frozen=True)
class AttributeDistribution:
    """The learned Θ_X: a distribution over the 2^w node attribute configurations.

    Attributes
    ----------
    num_attributes:
        The attribute dimension ``w``.
    probabilities:
        Array of length ``2^w`` summing to one; index ``y`` holds Θ_X(y).
    """

    num_attributes: int
    probabilities: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        expected = 1 << self.num_attributes
        probs = check_probability_vector(self.probabilities, "probabilities")
        if probs.size != expected:
            raise ValueError(
                f"probabilities must have length {expected} for w={self.num_attributes}, "
                f"got {probs.size}"
            )
        object.__setattr__(self, "probabilities", probs)

    @property
    def encoder(self) -> AttributeEncoder:
        """Encoder mapping attribute vectors to configuration codes."""
        return AttributeEncoder(self.num_attributes)

    def probability_of(self, vector) -> float:
        """Return Θ_X for a specific attribute vector."""
        return float(self.probabilities[self.encoder.encode(vector)])

    def sample_attribute_matrix(self, num_nodes: int, rng: RngLike = None
                                ) -> np.ndarray:
        """Sample an ``(num_nodes, w)`` attribute matrix i.i.d. from Θ_X."""
        generator = ensure_rng(rng)
        codes = generator.choice(
            self.probabilities.size, size=num_nodes, p=self.probabilities
        )
        if self.num_attributes == 0:
            return np.zeros((num_nodes, 0), dtype=np.uint8)
        return self.encoder.decode_many(codes)


def attribute_configuration_counts(graph: AttributedGraph) -> np.ndarray:
    """Exact counts of nodes per attribute configuration (the query set Q_X).

    Under a memory budget (``REPRO_MEMORY_BUDGET_MB``) the encoding pass
    runs over byte-bounded node-row blocks; per-block ``bincount`` results
    are summed exactly, so the chunked pass is bit-identical to the
    one-shot pass for every block size.
    """
    encoder = AttributeEncoder(graph.num_attributes)
    attributes = graph.attributes
    num_rows = attributes.shape[0]
    block = MemoryBudget.resolve().shard_rows(
        _ENCODE_ROW_BYTES * max(1, graph.num_attributes),
        minimum=4096, cap=max(1, num_rows),
    )
    counts = np.zeros(encoder.num_configurations, dtype=np.int64)
    for start in range(0, max(1, num_rows), block):
        codes = encoder.encode_matrix(attributes[start:start + block])
        counts += np.bincount(codes, minlength=encoder.num_configurations)
    return counts.astype(float)


def learn_attributes(graph: AttributedGraph) -> AttributeDistribution:
    """Measure Θ_X exactly (non-private)."""
    counts = attribute_configuration_counts(graph)
    total = counts.sum()
    if total == 0:
        probabilities = np.full(counts.shape, 1.0 / counts.size)
    else:
        probabilities = counts / total
    return AttributeDistribution(graph.num_attributes, probabilities)


def learn_attributes_dp(graph: AttributedGraph, epsilon: EpsilonLike,
                        rng: RngLike = None) -> AttributeDistribution:
    """LearnAttributesDP (Algorithm 5): an ε-DP estimate of Θ_X.

    Adds ``Lap(2/ε)`` noise to every configuration count, clamps to
    ``[0, n]`` and normalises.  Clamping and normalisation are
    post-processing and do not affect the guarantee (Theorem 8).

    ``epsilon`` may be a plain float or a
    :class:`~repro.privacy.accountant.SubBudget` handed out by a
    :class:`~repro.privacy.accountant.PrivacyAccountant`, in which case the
    spend is recorded in the accountant's ledger.
    """
    epsilon = charge_epsilon(epsilon)
    counts = attribute_configuration_counts(graph)
    noisy = counts + laplace_noise(
        ATTRIBUTE_HISTOGRAM_SENSITIVITY / epsilon, size=counts.shape, rng=rng
    )
    probabilities = normalize_counts(noisy, floor=0.0, ceiling=float(graph.num_nodes))
    return AttributeDistribution(graph.num_attributes, probabilities)
