"""Unit tests for Laplace noise and count normalisation."""

import numpy as np
import pytest

from repro.privacy.mechanisms import laplace_noise, normalize_counts


class TestLaplace:
    def test_zero_scale_returns_exact(self):
        assert laplace_noise(0.0) == 0.0
        assert np.all(laplace_noise(0.0, size=5) == 0.0)

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            laplace_noise(-1.0)

    def test_noise_magnitude_scales_with_epsilon(self, rng):
        # Lap(Δ / ε) at Δ = 1: ε = 0.1 against ε = 10.
        low_eps = laplace_noise(1.0 / 0.1, size=4000, rng=rng)
        high_eps = laplace_noise(1.0 / 10.0, size=4000, rng=rng)
        assert np.abs(low_eps).mean() > np.abs(high_eps).mean()

    def test_noise_is_centered_on_zero(self, rng):
        noise = laplace_noise(1.0, size=5000, rng=rng)
        assert noise.mean() == pytest.approx(0.0, abs=0.2)

    def test_shape_preserved(self, rng):
        assert laplace_noise(1.0, size=(3, 4), rng=rng).shape == (3, 4)

    def test_reproducible_with_seed(self):
        a = laplace_noise(1.0, size=2, rng=7)
        b = laplace_noise(1.0, size=2, rng=7)
        assert np.array_equal(a, b)


class TestClampAndNormalise:
    def test_clamp_bounds(self):
        # Counts are clamped into [floor, ceiling] before they are normalised.
        result = normalize_counts([-5.0, 0.5, 9.0], floor=0.0, ceiling=1.0)
        assert result.tolist() == pytest.approx([0.0, 1.0 / 3.0, 2.0 / 3.0])

    def test_normalize_counts_sums_to_one(self):
        result = normalize_counts([3.0, 1.0, -2.0])
        assert result.sum() == pytest.approx(1.0)
        assert result.min() >= 0.0

    def test_normalize_counts_all_negative_gives_uniform(self):
        result = normalize_counts([-3.0, -1.0])
        assert result.tolist() == [0.5, 0.5]

    def test_normalize_counts_respects_ceiling(self):
        result = normalize_counts([100.0, 1.0], ceiling=10.0)
        assert result[0] == pytest.approx(10.0 / 11.0)
