"""Unit tests for AGM-DP (Algorithm 3)."""

import numpy as np
import pytest

from repro.core.agm import AgmSynthesizer
from repro.core.agm_dp import DEFAULT_BUDGET_SPLIT, BudgetSplit, learn_agm_dp
from repro.params.structural import TriCycLeParameters


class TestBudgetSplit:
    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            BudgetSplit(attributes=0.5, correlations=0.5, structural=0.5)

    def test_fractions_must_be_positive(self):
        with pytest.raises(ValueError):
            BudgetSplit(attributes=0.0, correlations=0.5, structural=0.5)

    def test_degree_fraction_bounds(self):
        with pytest.raises(ValueError):
            BudgetSplit(attributes=0.25, correlations=0.25, structural=0.5,
                        structural_degree_fraction=1.0)

    def test_paper_default_split(self):
        assert DEFAULT_BUDGET_SPLIT == BudgetSplit(
            attributes=0.25, correlations=0.25, structural=0.5,
            structural_degree_fraction=0.5,
        )


class TestLearnAgmDp:
    def test_budget_is_fully_allocated(self, small_social_graph):
        _params, budget = learn_agm_dp(small_social_graph, epsilon=1.0, rng=0)
        assert budget.total_epsilon == pytest.approx(1.0)
        assert budget.spent == pytest.approx(1.0)
        labels = dict(budget.ledger())
        assert set(labels) == {"attributes", "correlations", "structural"}

    def test_paper_default_split_tricycle(self, small_social_graph):
        _params, budget = learn_agm_dp(small_social_graph, epsilon=1.0,
                                       backend="tricycle", rng=0)
        summary = budget.summary()
        assert summary["attributes"] == pytest.approx(0.25)
        assert summary["correlations"] == pytest.approx(0.25)
        assert summary["structural"] == pytest.approx(0.5)

    def test_returns_tricycle_parameters(self, small_social_graph):
        params, _budget = learn_agm_dp(small_social_graph, epsilon=1.0, rng=0)
        assert isinstance(params.structural, TriCycLeParameters)
        assert params.backend == "tricycle"

    def test_fcl_backend(self, small_social_graph):
        params, _budget = learn_agm_dp(small_social_graph, epsilon=1.0,
                                       backend="fcl", rng=0)
        assert params.backend == "fcl"

    def test_custom_budget_split(self, small_social_graph):
        split = BudgetSplit(attributes=0.2, correlations=0.5, structural=0.3)
        _params, budget = learn_agm_dp(small_social_graph, epsilon=2.0,
                                       budget_split=split, rng=0)
        assert budget.summary()["correlations"] == pytest.approx(1.0)

    def test_invalid_backend(self, small_social_graph):
        with pytest.raises(ValueError):
            learn_agm_dp(small_social_graph, epsilon=1.0, backend="ergm")

    def test_invalid_epsilon(self, small_social_graph):
        with pytest.raises(ValueError):
            learn_agm_dp(small_social_graph, epsilon=0.0)

    def test_reproducible_with_seed(self, small_social_graph):
        params_a, _ = learn_agm_dp(small_social_graph, epsilon=1.0, rng=3)
        params_b, _ = learn_agm_dp(small_social_graph, epsilon=1.0, rng=3)
        assert np.array_equal(params_a.structural.degrees, params_b.structural.degrees)
        assert np.allclose(
            params_a.correlations.probabilities, params_b.correlations.probabilities
        )

    def test_parameters_approach_exact_at_large_epsilon(self, small_social_graph):
        from repro.params.attribute_distribution import learn_attributes

        params, _ = learn_agm_dp(small_social_graph, epsilon=400.0, rng=1)
        exact = learn_attributes(small_social_graph)
        assert np.allclose(
            params.attribute_distribution.probabilities, exact.probabilities, atol=0.02
        )


class TestAgmDpFacade:
    """Fit then sample: ``learn_agm_dp``, then an ``AgmSynthesizer`` that
    draws from the same generator."""

    def test_fit_then_sample(self, small_social_graph):
        generator = np.random.default_rng(0)
        params, _ = learn_agm_dp(small_social_graph, epsilon=1.0,
                                 backend="tricycle", rng=generator)
        sample = AgmSynthesizer(params, num_iterations=1).sample(rng=generator)
        assert sample.num_nodes == small_social_graph.num_nodes
        assert sample.num_attributes == small_social_graph.num_attributes

    def test_fcl_facade_end_to_end(self, small_social_graph):
        generator = np.random.default_rng(1)
        params, _ = learn_agm_dp(small_social_graph, epsilon=2.0,
                                 backend="fcl", rng=generator)
        sample = AgmSynthesizer(params, num_iterations=1).sample(rng=generator)
        assert sample.num_edges > 0
