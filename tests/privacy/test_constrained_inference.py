"""Unit tests for the constrained-inference degree-sequence estimator."""

import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.synthetic import powerlaw_degree_sequence
from repro.privacy.constrained_inference import (
    DEGREE_SEQUENCE_SENSITIVITY,
    constrained_inference,
    isotonic_regression,
    private_degree_sequence,
)
from repro.testing.reference import isotonic_regression_reference


class TestIsotonicRegression:
    def test_already_sorted_unchanged(self):
        values = np.array([1.0, 2.0, 3.0])
        assert np.allclose(isotonic_regression(values), values)

    def test_simple_violation_pooled(self):
        result = isotonic_regression(np.array([2.0, 1.0]))
        assert np.allclose(result, [1.5, 1.5])

    def test_output_is_non_decreasing(self, rng):
        values = rng.normal(size=200)
        result = isotonic_regression(values)
        assert np.all(np.diff(result) >= -1e-9)

    def test_preserves_mean(self, rng):
        values = rng.normal(size=100)
        result = isotonic_regression(values)
        assert result.mean() == pytest.approx(values.mean())

    def test_matches_scipy(self, rng):
        from scipy.optimize import isotonic_regression as scipy_isotonic

        values = rng.normal(size=50)
        ours = isotonic_regression(values)
        theirs = scipy_isotonic(values).x
        assert np.allclose(ours, theirs, atol=1e-8)

    def test_empty_input(self):
        assert isotonic_regression(np.array([])).size == 0

    def test_constrained_inference_alias(self):
        values = np.array([3.0, 1.0, 2.0])
        assert np.allclose(constrained_inference(values),
                           isotonic_regression(values))


def test_submodule_name_binds_the_module():
    # A package attribute named like the submodule would shadow it for
    # ``import ... as`` and for dotted monkeypatch targets.
    import repro.privacy.constrained_inference as module
    from repro.privacy import constrained_inference as attribute

    assert isinstance(module, types.ModuleType)
    assert attribute is module
    assert module.constrained_inference is constrained_inference


def _assert_bit_identical(values):
    ours = isotonic_regression(values)
    reference = isotonic_regression_reference(values)
    assert ours.dtype == reference.dtype
    assert ours.shape == reference.shape
    assert ours.tobytes() == reference.tobytes()


class TestMatchesReferencePava:
    """The list-based PAVA is bit-identical to the numpy-array oracle."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), max_size=120))
    def test_arbitrary_values(self, values):
        _assert_bit_identical(np.asarray(values, dtype=float))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-3, 3), max_size=120))
    def test_ties(self, values):
        _assert_bit_identical(np.asarray(values, dtype=float))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(
        st.tuples(st.floats(-50, 50), st.integers(1, 12)), max_size=15,
    ))
    def test_constant_runs(self, runs):
        values = [value for value, length in runs for _ in range(length)]
        _assert_bit_identical(np.asarray(values, dtype=float))

    @pytest.mark.parametrize("values", [[], [2.5], [-0.0]])
    def test_empty_and_length_one(self, values):
        _assert_bit_identical(np.asarray(values, dtype=float))

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=600),
        st.sampled_from([0.1, 1.0, 10.0]),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_noisy_sorted_degree_sequences(self, num_nodes, epsilon, seed):
        """The production input: Laplace-noised sorted degree sequences."""
        rng = np.random.default_rng(seed)
        degrees = np.sort(powerlaw_degree_sequence(
            num_nodes, 6.0, max(2, num_nodes // 4), rng=rng,
        )).astype(float)
        noisy = degrees + rng.laplace(
            0.0, DEGREE_SEQUENCE_SENSITIVITY / epsilon, size=num_nodes
        )
        _assert_bit_identical(noisy)


class TestPrivateDegreeSequence:
    def test_output_length_and_monotonicity(self, small_social_graph):
        degrees = small_social_graph.degrees()
        estimate = private_degree_sequence(degrees, epsilon=1.0, rng=0)
        assert estimate.size == degrees.size
        assert np.all(np.diff(estimate) >= 0)

    def test_rounded_to_valid_degree_range(self, small_social_graph):
        degrees = small_social_graph.degrees()
        estimate = private_degree_sequence(degrees, epsilon=0.5, rng=1)
        assert estimate.min() >= 0
        assert estimate.max() <= degrees.size - 1
        assert estimate.dtype.kind == "i"

    def test_unrounded_option(self, small_social_graph):
        estimate = private_degree_sequence(
            small_social_graph.degrees(), epsilon=1.0, rng=1, round_to_int=False
        )
        assert estimate.dtype.kind == "f"

    def test_more_budget_means_less_error(self, small_social_graph):
        degrees = np.sort(small_social_graph.degrees())
        errors = {}
        for epsilon in (0.05, 5.0):
            trial_errors = []
            for seed in range(20):
                estimate = private_degree_sequence(degrees, epsilon, rng=seed)
                trial_errors.append(np.abs(np.sort(estimate) - degrees).mean())
            errors[epsilon] = np.mean(trial_errors)
        assert errors[5.0] < errors[0.05]

    def test_accurate_at_high_epsilon(self, small_social_graph):
        degrees = np.sort(small_social_graph.degrees())
        estimate = private_degree_sequence(degrees, epsilon=50.0, rng=3)
        assert np.abs(estimate - degrees).mean() < 1.0

    def test_empty_sequence(self):
        assert private_degree_sequence(np.array([]), epsilon=1.0).size == 0

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            private_degree_sequence(np.array([1, 2]), epsilon=0.0)

    def test_two_dimensional_input_rejected(self):
        with pytest.raises(ValueError):
            private_degree_sequence(np.zeros((2, 2)), epsilon=1.0)
