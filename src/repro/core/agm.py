"""The Attributed Graph Model (AGM) synthesis loop.

AGM (Pfeiffer et al., WWW 2014) models an attributed graph through three
parameter sets — the node attribute distribution Θ_X, the attribute–edge
correlations Θ_F, and the parameters Θ_M of an underlying structural model —
and samples synthetic graphs by generating structure and filtering proposed
edges through attribute-dependent acceptance probabilities.

This module implements the *non-private* version: :func:`learn_agm` measures
the parameters exactly and :class:`AgmSynthesizer` runs the sampling loop of
Section 4 (acceptance probabilities recomputed over a small number of
iterations, then applied inside the structural model's own sampler so that
models like TriCycLe, which rewire rather than re-sample, are supported).
The differentially private variant in :mod:`repro.core.agm_dp` reuses this
synthesizer with privately learned parameters — after the learning step the
raw input graph is never touched again, so everything here is
post-processing.

One deviation from the paper: Algorithm 3 (line 7) draws a temporary edge
set from the structural model alone, only to read its Θ'_F for the first
acceptance vector.  Here that first Θ'_F is its expectation under the
model's Chung-Lu proposal law instead of one draw
(:func:`~repro.core.acceptance.expected_correlations`): the structural
model's π and the sample's own attribute draw determine it in closed form,
so a sample runs ``num_iterations`` generations, not one more.  It reads
only the DP parameters and the sample's attributes, so it is
post-processing too and spends no ε (Theorem 2).  The draw-based line 7
lives on as the reference contract
:class:`repro.testing.reference.LoopCalibratedSynthesizer`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.attributes.encoding import AttributeEncoder
from repro.core.acceptance import (
    compute_acceptance_probabilities,
    expected_correlations,
    observed_correlations,
)
from repro.core import backends
from repro.graphs.attributed import AttributedGraph
from repro.models.base import EdgeAcceptance, StructuralModel
from repro.params.attribute_distribution import AttributeDistribution, learn_attributes
from repro.params.correlations import CorrelationDistribution, learn_correlations
from repro.params.structural import FclParameters, TriCycLeParameters
from repro.utils.rng import RngLike, ensure_rng

#: Refinement rounds a sample runs when the caller names none.  The
#: synthesizer, the pipeline, the release spec, the artifact, the runner
#: and the result tables all read this one default.
DEFAULT_NUM_ITERATIONS = 2


@dataclass(frozen=True)
class AgmParameters:
    """The three learned AGM parameter sets plus the chosen structural backend.

    Attributes
    ----------
    attribute_distribution:
        Θ_X — distribution over node attribute configurations.
    correlations:
        Θ_F — distribution over edge attribute configurations.
    structural:
        Θ_M — degree sequence (and triangle count for TriCycLe).
    backend:
        One of :data:`repro.core.backends.BACKENDS`; ``structural`` must
        be that backend's parameter type.
    """

    attribute_distribution: AttributeDistribution
    correlations: CorrelationDistribution
    structural: Union[FclParameters, TriCycLeParameters]
    backend: str = "tricycle"

    def __post_init__(self) -> None:
        expected = backends.parameter_type(self.backend)
        if not isinstance(self.structural, expected):
            raise TypeError(
                f"the {self.backend!r} backend requires {expected.__name__} "
                f"(got {type(self.structural).__name__})"
            )
        if (
            self.attribute_distribution.num_attributes
            != self.correlations.num_attributes
        ):
            raise ValueError(
                "attribute_distribution and correlations disagree on the number "
                "of attributes"
            )

    @property
    def num_attributes(self) -> int:
        """The attribute dimension ``w``."""
        return self.attribute_distribution.num_attributes

    @property
    def num_nodes(self) -> int:
        """The number of nodes of graphs sampled from these parameters."""
        return self.structural.num_nodes


def learn_agm(graph: AttributedGraph, backend: str = "tricycle") -> AgmParameters:
    """Measure the AGM parameters exactly (no privacy).

    Parameters
    ----------
    graph:
        The input attributed graph.
    backend:
        Structural backend: ``"tricycle"`` (degree sequence + triangle count)
        or ``"fcl"`` (degree sequence only).
    """
    backends.check(backend)  # raise before any learning work
    return AgmParameters(
        attribute_distribution=learn_attributes(graph),
        correlations=learn_correlations(graph),
        structural=backends.fit(backend, graph),
        backend=backend,
    )


class AgmSynthesizer:
    """Samples synthetic attributed graphs from a set of AGM parameters.

    Parameters
    ----------
    parameters:
        The learned (exactly or privately) AGM parameters.
    num_iterations:
        Refinement rounds, one generation each (Algorithm 3's outer loop):
        each round computes the acceptance vector from the latest Θ'_F and
        generates through it, and the last round's graph is the sample.
        The paper observes convergence "after just a few iterations".
    handle_orphans:
        Forwarded to the TriCycLe backend's orphan-repair extension.
    memory_budget_mb:
        Optional generation memory budget in MiB, forwarded to the
        structural backend.  Models shard their sampling passes to fit and
        raise :class:`~repro.utils.memory.MemoryBudgetError`
        (``over_memory``) when a stage's pessimistic estimate cannot fit.

    Notes
    -----
    Sampling is pure post-processing of the parameters: it never touches the
    original input graph, which is what makes the DP variant's privacy
    argument (Theorem 2) go through.
    """

    def __init__(self, parameters: AgmParameters,
                 num_iterations: int = DEFAULT_NUM_ITERATIONS,
                 handle_orphans: bool = True,
                 memory_budget_mb: Optional[int] = None) -> None:
        if num_iterations < 1:
            raise ValueError(f"num_iterations must be >= 1, got {num_iterations}")
        self._parameters = parameters
        self._num_iterations = int(num_iterations)
        self._handle_orphans = bool(handle_orphans)
        self._memory_budget_mb = (
            None if memory_budget_mb is None else int(memory_budget_mb)
        )

    @property
    def parameters(self) -> AgmParameters:
        """The parameters this synthesizer samples from."""
        return self._parameters

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(self, rng: RngLike = None) -> AttributedGraph:
        """Sample one synthetic attributed graph.

        The procedure follows Algorithm 3, lines 6-18: draw attribute
        vectors from Θ_X, take the first Θ'_F from the structural model
        alone (in expectation, see the module doc), then in each round
        recompute the acceptance probabilities and generate the edge set
        through the acceptance-aware sampler, observing its Θ'_F for the
        next round.
        """
        generator = ensure_rng(rng)
        params = self._parameters
        n = params.num_nodes
        w = params.num_attributes

        # Line 6: sample attribute vectors X̃ from Θ̃_X.
        attributes = params.attribute_distribution.sample_attribute_matrix(
            n, rng=generator
        )
        encoder = AttributeEncoder(w)
        node_codes = encoder.encode_matrix(attributes) if w else np.zeros(n, dtype=np.int64)

        # Line 7: Θ'_F of the structural model alone, in expectation.
        observed = self._initial_correlations(attributes, node_codes, generator)

        # Lines 9-18: refine acceptance probabilities and resample.
        acceptance_vector: Optional[np.ndarray] = None
        for round_index in range(self._num_iterations):
            acceptance_vector = compute_acceptance_probabilities(
                params.correlations.probabilities, observed, previous=acceptance_vector
            )
            acceptance = EdgeAcceptance(
                probabilities=acceptance_vector,
                node_codes=node_codes,
                num_attributes=w,
            )
            graph = self._build_model().generate(
                num_nodes=n, rng=generator, acceptance=acceptance
            )
            graph = self._with_attributes(graph, attributes)
            if round_index + 1 < self._num_iterations:
                observed = observed_correlations(graph)

        return graph

    def sample_many(self, count: int, rng: RngLike = None):
        """Yield ``count`` independent synthetic graphs."""
        generator = ensure_rng(rng)
        for _ in range(count):
            yield self.sample(rng=generator)

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _initial_correlations(self, attributes: np.ndarray,
                              node_codes: np.ndarray,
                              generator: np.random.Generator) -> np.ndarray:
        """The Θ'_F the first round's acceptance vector corrects.

        Its expectation over the structural model's unfiltered proposals,
        from the model's π and the sample's node codes; it draws nothing.
        """
        params = self._parameters
        return expected_correlations(
            self._build_model().pi_distribution(params.num_nodes),
            node_codes, params.num_attributes,
        )

    def _build_model(self) -> StructuralModel:
        """Instantiate a fresh structural model for the parameters' backend."""
        params = self._parameters
        return backends.build_model(
            params.backend, params.structural,
            handle_orphans=self._handle_orphans,
            memory_budget_mb=self._memory_budget_mb,
        )

    @staticmethod
    def _with_attributes(graph: AttributedGraph, attributes: np.ndarray
                         ) -> AttributedGraph:
        """Return ``graph`` with the sampled attribute matrix attached."""
        w = attributes.shape[1] if attributes.ndim == 2 else 0
        if graph.num_attributes == w:
            result = graph
        else:
            result = AttributedGraph.from_graph_structure(graph, w)
        if w:
            result.set_all_attributes(attributes)
        return result
