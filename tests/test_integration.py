"""Integration tests across modules: the full paper workflow end to end."""

import numpy as np
import pytest

pytestmark = pytest.mark.slow

from repro import (
    AgmSynthesizer,
    evaluate_synthetic_graph,
    learn_agm,
    learn_agm_dp,
)
from repro.graphs.components import is_connected
from repro.graphs.io import load_graph_json, save_graph_json
from repro.metrics.distributions import hellinger_distance
from repro.params.correlations import connection_probabilities


def _fit_then_sample(graph, epsilon, seed, backend="tricycle",
                     num_iterations=3):
    """Fit AGM-DP, then draw one sample, both from one seeded generator."""
    generator = np.random.default_rng(seed)
    params, _ = learn_agm_dp(graph, epsilon, backend=backend, rng=generator)
    synthesizer = AgmSynthesizer(params, num_iterations=num_iterations)
    return synthesizer.sample(rng=generator)


class TestEndToEndPrivateSynthesis:
    """Algorithm 3 from input graph to evaluated synthetic graph."""

    def test_full_pipeline_tricycle(self, medium_social_graph):
        synthetic = _fit_then_sample(medium_social_graph, 2.0, seed=0,
                                     num_iterations=2)

        assert synthetic.num_nodes == medium_social_graph.num_nodes
        assert synthetic.num_attributes == medium_social_graph.num_attributes
        report = evaluate_synthetic_graph(medium_social_graph, synthetic)
        # Structure should be in the right ballpark at a comfortable budget.
        assert report.edge_count_mre < 0.25
        assert report.degree_ks < 0.5

    def test_full_pipeline_fcl(self, medium_social_graph):
        synthetic = _fit_then_sample(medium_social_graph, 2.0, seed=1,
                                     backend="fcl", num_iterations=2)
        report = evaluate_synthetic_graph(medium_social_graph, synthetic)
        assert report.edge_count_mre < 0.25

    def test_tricycle_reproduces_clustering_better_than_fcl(self, medium_social_graph):
        """The headline comparison of Tables 2-5.

        A single draw is noisy (FCL occasionally lands near the triangle
        count by luck), so the claim is checked on the average over seeds.
        """
        def average_triangle_mre(backend: str) -> float:
            errors = []
            for seed in range(3):
                synthetic = _fit_then_sample(medium_social_graph, 3.0, seed,
                                             backend=backend, num_iterations=1)
                errors.append(
                    evaluate_synthetic_graph(medium_social_graph, synthetic)
                    .triangle_mre
                )
            return float(np.mean(errors))

        assert average_triangle_mre("tricycle") < average_triangle_mre("fcl")

    def test_correlations_beat_uniform_baseline(self, medium_social_graph):
        """Section 5.2: Θ_F error must be well below the uniform baseline."""
        synthetic = _fit_then_sample(medium_social_graph, 2.0, seed=3,
                                     num_iterations=2)
        target = connection_probabilities(medium_social_graph)
        achieved = connection_probabilities(synthetic)
        uniform = np.full_like(target, 1.0 / target.size)
        assert hellinger_distance(target, achieved) \
            < hellinger_distance(target, uniform)

    def test_more_privacy_means_more_error_on_average(self, medium_social_graph):
        """Error should grow as ε shrinks (averaged over a few trials)."""
        def average_theta_f_error(epsilon: float) -> float:
            errors = []
            for seed in range(3):
                synthetic = _fit_then_sample(medium_social_graph, epsilon,
                                             seed, backend="fcl",
                                             num_iterations=1)
                errors.append(
                    evaluate_synthetic_graph(medium_social_graph, synthetic)
                    .theta_f_hellinger
                )
            return float(np.mean(errors))

        assert average_theta_f_error(0.05) > average_theta_f_error(5.0)

    def test_synthetic_graph_is_connected_with_orphan_handling(self,
                                                               medium_social_graph):
        synthetic = _fit_then_sample(medium_social_graph, 2.0, seed=4,
                                     num_iterations=1)
        assert is_connected(synthetic)

    def test_budget_never_exceeded(self, small_social_graph):
        for epsilon in (0.1, 0.5, 2.0):
            _params, budget = learn_agm_dp(small_social_graph, epsilon, rng=0)
            assert budget.spent <= budget.total_epsilon * (1 + 1e-9)


class TestNonPrivateVersusPrivate:
    def test_private_parameters_converge_to_exact(self, medium_social_graph):
        exact = learn_agm(medium_social_graph, backend="tricycle")
        # The Θ_F estimator measures the *truncated* graph, so its truncation
        # bias does not vanish as ε grows; pick k above the maximum degree so
        # that only the Laplace noise separates private from exact.
        truncation_k = int(medium_social_graph.degrees().max()) + 1
        private, _budget = learn_agm_dp(
            medium_social_graph, epsilon=500.0, backend="tricycle",
            truncation_k=truncation_k, rng=0,
        )
        assert np.allclose(
            exact.attribute_distribution.probabilities,
            private.attribute_distribution.probabilities,
            atol=0.05,
        )
        assert np.allclose(
            exact.correlations.probabilities,
            private.correlations.probabilities,
            atol=0.05,
        )
        assert abs(
            exact.structural.num_triangles - private.structural.num_triangles
        ) <= max(50, 0.2 * exact.structural.num_triangles)

    def test_non_private_sampler_with_private_parameters(self, small_social_graph):
        """Sampling is post-processing: the same synthesizer serves both."""
        parameters, _budget = learn_agm_dp(small_social_graph, epsilon=1.0, rng=0)
        synthesizer = AgmSynthesizer(parameters, num_iterations=1)
        sample = synthesizer.sample(rng=1)
        assert sample.num_nodes == small_social_graph.num_nodes


class TestPersistenceRoundTrip:
    def test_synthetic_graph_survives_serialisation(self, tmp_path,
                                                    small_social_graph):
        synthetic = _fit_then_sample(small_social_graph, 1.0, seed=0,
                                     num_iterations=1)
        path = tmp_path / "synthetic.json"
        save_graph_json(synthetic, path)
        assert load_graph_json(path) == synthetic
