"""Unit tests for the non-private AGM synthesizer."""

import numpy as np
import pytest

from repro.core.agm import AgmParameters, AgmSynthesizer, learn_agm
from repro.graphs.statistics import triangle_count
from repro.metrics.distributions import hellinger_distance
from repro.params.attribute_distribution import learn_attributes
from repro.params.correlations import connection_probabilities, learn_correlations
from repro.params.structural import fit_fcl, fit_tricycle


class TestAgmParameters:
    def test_backend_validation(self, small_social_graph):
        with pytest.raises(ValueError):
            AgmParameters(
                attribute_distribution=learn_attributes(small_social_graph),
                correlations=learn_correlations(small_social_graph),
                structural=fit_tricycle(small_social_graph),
                backend="unknown",
            )

    def test_tricycle_backend_requires_triangle_parameters(self, small_social_graph):
        with pytest.raises(TypeError):
            AgmParameters(
                attribute_distribution=learn_attributes(small_social_graph),
                correlations=learn_correlations(small_social_graph),
                structural=fit_fcl(small_social_graph),
                backend="tricycle",
            )

    def test_learn_agm_round_trip(self, small_social_graph):
        params = learn_agm(small_social_graph, backend="tricycle")
        assert params.num_nodes == small_social_graph.num_nodes
        assert params.num_attributes == 2
        assert params.structural.num_triangles == triangle_count(small_social_graph)

    def test_learn_agm_fcl_backend(self, small_social_graph):
        params = learn_agm(small_social_graph, backend="fcl")
        assert params.backend == "fcl"

    def test_learn_agm_unknown_backend(self, small_social_graph):
        with pytest.raises(ValueError):
            learn_agm(small_social_graph, backend="ergm")


class TestAgmSynthesizer:
    def test_invalid_iterations(self, small_social_graph):
        params = learn_agm(small_social_graph)
        with pytest.raises(ValueError):
            AgmSynthesizer(params, num_iterations=0)

    def test_sample_preserves_node_count_and_attributes(self, small_social_graph):
        params = learn_agm(small_social_graph)
        sample = AgmSynthesizer(params, num_iterations=1).sample(rng=0)
        assert sample.num_nodes == small_social_graph.num_nodes
        assert sample.num_attributes == small_social_graph.num_attributes
        assert sample.num_edges > 0

    def test_sample_is_simple_graph(self, small_social_graph):
        params = learn_agm(small_social_graph)
        sample = AgmSynthesizer(params, num_iterations=1).sample(rng=1)
        edges = list(sample.edges())
        assert len(edges) == len(set(edges))
        assert all(u != v for u, v in edges)

    def test_edge_count_close_to_input(self, small_social_graph):
        params = learn_agm(small_social_graph)
        sample = AgmSynthesizer(params, num_iterations=2).sample(rng=2)
        assert abs(sample.num_edges - small_social_graph.num_edges) \
            <= 0.05 * small_social_graph.num_edges + 2

    def test_attribute_marginals_close_to_input(self, medium_social_graph):
        params = learn_agm(medium_social_graph)
        sample = AgmSynthesizer(params, num_iterations=1).sample(rng=3)
        input_marginals = medium_social_graph.attributes.mean(axis=0)
        sample_marginals = sample.attributes.mean(axis=0)
        assert np.allclose(input_marginals, sample_marginals, atol=0.1)

    def test_correlations_closer_than_uniform_baseline(self, medium_social_graph):
        """The sampler should reproduce homophily better than ignoring it."""
        params = learn_agm(medium_social_graph)
        sample = AgmSynthesizer(params, num_iterations=2).sample(rng=4)
        target = connection_probabilities(medium_social_graph)
        achieved = connection_probabilities(sample)
        uniform = np.full_like(target, 1.0 / target.size)
        assert hellinger_distance(target, achieved) < hellinger_distance(target, uniform)

    def test_fcl_backend_sampling(self, small_social_graph):
        params = learn_agm(small_social_graph, backend="fcl")
        sample = AgmSynthesizer(params, num_iterations=1).sample(rng=5)
        assert sample.num_nodes == small_social_graph.num_nodes

    def test_reproducible_with_seed(self, small_social_graph):
        params = learn_agm(small_social_graph)
        synthesizer = AgmSynthesizer(params, num_iterations=1)
        assert synthesizer.sample(rng=8) == synthesizer.sample(rng=8)
