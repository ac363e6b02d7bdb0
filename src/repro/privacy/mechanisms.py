"""Laplace noise and the normalisation of noisy counts.

The Laplace mechanism of Section 2.3 adds ``Lap(Δ / ε)`` noise to a query
answer.  The learners draw that noise with :func:`laplace_noise`, supplying
the scale from their own global (or smooth) sensitivity, and turn noisy
histograms into distributions with :func:`normalize_counts`.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.utils.rng import RngLike, ensure_rng

ArrayLike = Union[float, Sequence[float], np.ndarray]


def laplace_noise(scale: float, size=None, rng: RngLike = None) -> np.ndarray:
    """Draw noise from ``Lap(0, scale)``.

    A scale of zero returns exact zeros, which is convenient for "non-private"
    baselines that share code paths with the private estimators.
    """
    if scale < 0:
        raise ValueError(f"scale must be non-negative, got {scale}")
    generator = ensure_rng(rng)
    if scale == 0:
        return np.zeros(size) if size is not None else np.float64(0.0)
    return generator.laplace(loc=0.0, scale=scale, size=size)


def normalize_counts(noisy_counts: ArrayLike, floor: float = 0.0,
                     ceiling: Optional[float] = None) -> np.ndarray:
    """Clamp noisy counts and normalise them into a probability distribution.

    If the clamped counts are all zero (possible under heavy noise), a uniform
    distribution is returned rather than dividing by zero — this mirrors the
    "no information" fallback the experiments use for tiny budgets.
    """
    arr = np.asarray(noisy_counts, dtype=float)
    high = ceiling if ceiling is not None else np.inf
    arr = np.clip(arr, floor, high)
    total = arr.sum()
    if total <= 0:
        return np.full(arr.shape, 1.0 / arr.size)
    return arr / total
