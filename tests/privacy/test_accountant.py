"""Unit and property-style tests for the hierarchical privacy accountant."""

import numpy as np
import pytest

from repro.core.agm_dp import DEFAULT_BUDGET_SPLIT, BudgetSplit, learn_agm_dp
from repro.privacy.accountant import (
    PrivacyAccountant,
    SubBudget,
    charge_epsilon,
)
from repro.privacy.budget import BudgetExceededError


class TestPrivacyAccountant:
    def test_requires_positive_epsilon(self):
        with pytest.raises(ValueError):
            PrivacyAccountant(0.0)
        with pytest.raises(ValueError):
            PrivacyAccountant(-1.0)

    def test_allocate_and_spend(self):
        accountant = PrivacyAccountant(1.0)
        sub = accountant.allocate("attributes", 0.25)
        assert sub.epsilon == pytest.approx(0.25)
        assert sub.spend() == pytest.approx(0.25)
        assert accountant.spent == pytest.approx(0.25)
        assert accountant.remaining == pytest.approx(0.75)

    def test_allocation_overdraft_raises(self):
        accountant = PrivacyAccountant(1.0)
        accountant.allocate("a", 0.7)
        with pytest.raises(BudgetExceededError):
            accountant.allocate("b", 0.5)

    def test_duplicate_stage_rejected(self):
        accountant = PrivacyAccountant(1.0)
        accountant.allocate("a", 0.2)
        with pytest.raises(ValueError):
            accountant.allocate("a", 0.2)

    def test_stage_names_validated(self):
        accountant = PrivacyAccountant(1.0)
        with pytest.raises(ValueError):
            accountant.allocate("", 0.1)
        with pytest.raises(ValueError):
            accountant.allocate("a.b", 0.1)

    def test_sub_budget_overdraft_raises(self):
        accountant = PrivacyAccountant(1.0)
        sub = accountant.allocate("a", 0.25)
        with pytest.raises(BudgetExceededError):
            sub.spend(0.3)

    def test_direct_spend_respects_allocations(self):
        accountant = PrivacyAccountant(1.0)
        accountant.allocate("a", 0.8)
        with pytest.raises(BudgetExceededError):
            accountant.spend(0.3, "direct")
        accountant.spend(0.2, "direct")
        assert accountant.uncommitted == pytest.approx(0.0)

    def test_split_allocates_proportionally(self):
        accountant = PrivacyAccountant(2.0)
        subs = accountant.split({"x": 1, "f": 1, "m": 2})
        assert subs["x"].epsilon == pytest.approx(0.5)
        assert subs["m"].epsilon == pytest.approx(1.0)
        assert accountant.allocated == pytest.approx(2.0)

    @pytest.mark.parametrize("weights", [
        {}, {"x": -1, "y": 2}, {"x": 0, "y": 0},
    ], ids=["empty", "negative", "all_zero"])
    def test_split_rejects_invalid_weights(self, weights):
        with pytest.raises(ValueError):
            PrivacyAccountant(1.0).split(weights)

    def test_nested_split_records_dotted_paths(self):
        accountant = PrivacyAccountant(1.0)
        structural = accountant.allocate("structural", 0.5)
        children = structural.split({"degrees": 1, "triangles": 1})
        children["degrees"].spend()
        children["triangles"].spend()
        breakdown = accountant.breakdown()
        assert breakdown["structural.degrees"] == pytest.approx(0.25)
        assert breakdown["structural.triangles"] == pytest.approx(0.25)
        assert accountant.summary()["structural"] == pytest.approx(0.5)

    def test_nested_split_cannot_exceed_parent(self):
        accountant = PrivacyAccountant(1.0)
        structural = accountant.allocate("structural", 0.5)
        structural.split({"degrees": 1, "triangles": 1})
        with pytest.raises(BudgetExceededError):
            structural.spend(0.1)

    def test_as_dict_round_trips_through_json(self):
        import json

        accountant = PrivacyAccountant(1.0)
        accountant.allocate("a", 0.5).spend()
        snapshot = json.loads(json.dumps(accountant.as_dict()))
        assert snapshot["total_epsilon"] == pytest.approx(1.0)
        assert snapshot["spends"]["a"] == pytest.approx(0.5)


class TestChargeEpsilon:
    def test_plain_float_passthrough(self):
        assert charge_epsilon(0.5) == pytest.approx(0.5)

    def test_invalid_float_rejected(self):
        with pytest.raises(ValueError):
            charge_epsilon(0.0)

    def test_sub_budget_spends_everything(self):
        accountant = PrivacyAccountant(1.0)
        sub = accountant.allocate("a", 0.4)
        assert charge_epsilon(sub) == pytest.approx(0.4)
        assert accountant.spent == pytest.approx(0.4)

    def test_label_extends_path(self):
        accountant = PrivacyAccountant(1.0)
        sub = accountant.allocate("a", 0.4)
        charge_epsilon(sub, label="laplace")
        assert accountant.breakdown() == {"a.laplace": pytest.approx(0.4)}


class TestCompositionProperties:
    """Property-style checks: spends always respect the global ε."""

    @pytest.mark.parametrize("backend", ["tricycle", "fcl"])
    @pytest.mark.parametrize("epsilon", [0.1, 1.0, 3.7])
    def test_spends_sum_to_global_epsilon(self, small_social_graph, backend,
                                          epsilon):
        _params, accountant = learn_agm_dp(
            small_social_graph, epsilon=epsilon, backend=backend, rng=0
        )
        assert accountant.total_epsilon == pytest.approx(epsilon)
        assert accountant.spent == pytest.approx(epsilon)
        assert sum(accountant.breakdown().values()) <= epsilon * (1 + 1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_splits_never_overdraft(self, small_social_graph, seed):
        rng = np.random.default_rng(seed)
        raw = rng.dirichlet([1.0, 1.0, 1.0])
        split = BudgetSplit(
            attributes=float(raw[0]), correlations=float(raw[1]),
            structural=float(1.0 - raw[0] - raw[1]),
            structural_degree_fraction=float(rng.uniform(0.1, 0.9)),
        )
        epsilon = float(rng.uniform(0.2, 4.0))
        _params, accountant = learn_agm_dp(
            small_social_graph, epsilon=epsilon, budget_split=split, rng=seed
        )
        assert accountant.spent <= epsilon * (1 + 1e-9)
        assert accountant.spent == pytest.approx(epsilon)

    @pytest.mark.parametrize("backend", ["tricycle", "fcl"])
    def test_default_split_reproduces_paper_fractions(self, small_social_graph,
                                                      backend):
        """ε/4 to Θ_X and Θ_F; TriCycLe gives ε/4 each to degrees/triangles,
        FCL spends the whole structural half (ε/2) on the degree sequence."""
        _params, accountant = learn_agm_dp(
            small_social_graph, epsilon=1.0, backend=backend,
            budget_split=DEFAULT_BUDGET_SPLIT, rng=0,
        )
        breakdown = accountant.breakdown()
        assert breakdown["attributes"] == pytest.approx(0.25)
        assert breakdown["correlations"] == pytest.approx(0.25)
        if backend == "tricycle":
            assert breakdown["structural.degrees"] == pytest.approx(0.25)
            assert breakdown["structural.triangles"] == pytest.approx(0.25)
        else:
            assert breakdown["structural.degrees"] == pytest.approx(0.5)

    def test_external_accountant_is_charged(self, small_social_graph):
        accountant = PrivacyAccountant(1.0)
        _params, returned = learn_agm_dp(
            small_social_graph, epsilon=1.0, rng=0, accountant=accountant
        )
        assert returned is accountant
        assert accountant.spent == pytest.approx(1.0)

    def test_external_accountant_must_match_epsilon(self, small_social_graph):
        with pytest.raises(ValueError):
            learn_agm_dp(
                small_social_graph, epsilon=2.0, rng=0,
                accountant=PrivacyAccountant(1.0),
            )

    def test_learner_with_sub_budget_books_spend(self, small_social_graph):
        from repro.params.attribute_distribution import learn_attributes_dp

        accountant = PrivacyAccountant(1.0)
        sub = accountant.allocate("attributes", 0.25)
        learn_attributes_dp(small_social_graph, sub, rng=0)
        assert accountant.breakdown() == {"attributes": pytest.approx(0.25)}
        # A second use of the same (exhausted) sub-budget must overdraft.
        with pytest.raises(BudgetExceededError):
            learn_attributes_dp(small_social_graph, sub, rng=0)
