"""Unit tests for the Θ_X learners (Algorithm 5)."""

import numpy as np
import pytest

from repro.params.attribute_distribution import (
    AttributeDistribution,
    attribute_configuration_counts,
    learn_attributes,
    learn_attributes_dp,
)


class TestAttributeDistribution:
    def test_length_must_match_dimension(self):
        with pytest.raises(ValueError):
            AttributeDistribution(2, np.array([0.5, 0.5]))

    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            AttributeDistribution(1, np.array([0.7, 0.7]))

    def test_probability_of_vector(self):
        dist = AttributeDistribution(1, np.array([0.3, 0.7]))
        assert dist.probability_of([1]) == pytest.approx(0.7)

    def test_sampling_matches_marginals(self, rng):
        dist = AttributeDistribution(2, np.array([0.7, 0.1, 0.1, 0.1]))
        matrix = dist.sample_attribute_matrix(20_000, rng=rng)
        assert matrix.shape == (20_000, 2)
        fraction_zero = np.mean((matrix == 0).all(axis=1))
        assert fraction_zero == pytest.approx(0.7, abs=0.02)

    def test_sampling_zero_attributes(self, rng):
        dist = AttributeDistribution(0, np.array([1.0]))
        matrix = dist.sample_attribute_matrix(5, rng=rng)
        assert matrix.shape == (5, 0)


class TestExactLearner:
    def test_counts(self, triangle_graph):
        counts = attribute_configuration_counts(triangle_graph)
        # Vectors: [1,0] x2 -> code 1; [0,1] -> code 2; [0,0] -> code 0.
        assert counts.tolist() == [1.0, 2.0, 1.0, 0.0]

    def test_probabilities_sum_to_one(self, triangle_graph):
        dist = learn_attributes(triangle_graph)
        assert dist.probabilities.sum() == pytest.approx(1.0)
        assert dist.probabilities[1] == pytest.approx(0.5)

    def test_empty_graph_gives_uniform(self):
        from repro.graphs.attributed import AttributedGraph

        dist = learn_attributes(AttributedGraph(0, 2))
        assert np.allclose(dist.probabilities, 0.25)


class TestDpLearner:
    def test_output_is_distribution(self, small_social_graph):
        dist = learn_attributes_dp(small_social_graph, epsilon=0.5, rng=0)
        assert dist.probabilities.sum() == pytest.approx(1.0)
        assert dist.probabilities.min() >= 0.0

    def test_accuracy_improves_with_epsilon(self, small_social_graph):
        exact = learn_attributes(small_social_graph).probabilities
        errors = {}
        for epsilon in (0.05, 10.0):
            trial = [
                np.abs(
                    learn_attributes_dp(small_social_graph, epsilon, rng=s).probabilities
                    - exact
                ).mean()
                for s in range(20)
            ]
            errors[epsilon] = np.mean(trial)
        assert errors[10.0] < errors[0.05]

    def test_close_to_exact_at_large_epsilon(self, small_social_graph):
        exact = learn_attributes(small_social_graph).probabilities
        dist = learn_attributes_dp(small_social_graph, epsilon=100.0, rng=0)
        assert np.abs(dist.probabilities - exact).max() < 0.01

    def test_reproducible_with_seed(self, small_social_graph):
        a = learn_attributes_dp(small_social_graph, 1.0, rng=5).probabilities
        b = learn_attributes_dp(small_social_graph, 1.0, rng=5).probabilities
        assert np.array_equal(a, b)

    def test_invalid_epsilon(self, small_social_graph):
        with pytest.raises(ValueError):
            learn_attributes_dp(small_social_graph, epsilon=-1.0)
