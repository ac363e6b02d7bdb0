"""Unit tests for validation helpers."""

import numpy as np
import pytest

from repro.utils.validation import (
    check_epsilon,
    check_fraction,
    check_positive_int,
    check_probability_vector,
    positive_from_env,
)


class TestCheckEpsilon:
    def test_valid(self):
        assert check_epsilon(0.5) == 0.5

    @pytest.mark.parametrize("value", [0.0, -1.0, float("inf"), float("nan")])
    def test_invalid(self, value):
        with pytest.raises(ValueError):
            check_epsilon(value)


class TestCheckPositiveInt:
    def test_valid(self):
        assert check_positive_int(3, "x") == 3

    def test_custom_minimum(self):
        assert check_positive_int(0, "x", minimum=0) == 0

    def test_below_minimum(self):
        with pytest.raises(ValueError):
            check_positive_int(0, "x")

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            check_positive_int(True, "x")

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            check_positive_int(2.0, "x")


class TestCheckFraction:
    def test_inclusive_bounds(self):
        assert check_fraction(0.0, "x") == 0.0
        assert check_fraction(1.0, "x") == 1.0

    def test_exclusive_bounds(self):
        with pytest.raises(ValueError):
            check_fraction(0.0, "x", inclusive=False)
        assert check_fraction(0.5, "x", inclusive=False) == 0.5

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            check_fraction(1.5, "x")


class TestCheckProbabilityVector:
    def test_valid(self):
        result = check_probability_vector([0.25, 0.75])
        assert np.allclose(result, [0.25, 0.75])

    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            check_probability_vector([0.5, 0.6])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            check_probability_vector([1.5, -0.5])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            check_probability_vector([])

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValueError):
            check_probability_vector(np.full((2, 2), 0.25))


class TestPositiveFromEnv:
    @pytest.mark.parametrize("raw", [None, ""])
    def test_unset_or_empty_gives_the_default(self, monkeypatch, raw):
        if raw is None:
            monkeypatch.delenv("REPRO_TEST_VALUE", raising=False)
        else:
            monkeypatch.setenv("REPRO_TEST_VALUE", raw)
        assert positive_from_env("REPRO_TEST_VALUE", 7) == 7
        assert positive_from_env("REPRO_TEST_VALUE", None, float) is None

    def test_reads_a_positive_value_of_its_kind(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_VALUE", "3")
        assert positive_from_env("REPRO_TEST_VALUE", 7) == 3
        monkeypatch.setenv("REPRO_TEST_VALUE", "2.5")
        assert positive_from_env("REPRO_TEST_VALUE", None, float) == 2.5
