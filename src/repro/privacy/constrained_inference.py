"""Differentially private degree sequences via constrained inference.

Implements the estimator of Hay, Li, Miklau & Jensen (ICDM 2009) used by the
paper (Appendix C.3.1) to fit the degree-sequence parameter of both FCL and
TriCycLe:

1. sort the degree sequence in non-decreasing order (the order is public —
   only the multiset of degrees matters to the generators);
2. add independent ``Lap(2/ε)`` noise to every coordinate (adding or removing
   one edge changes exactly two degrees by one, so the L1 sensitivity of the
   sorted sequence is 2);
3. post-process the noisy sequence back onto the monotone cone by isotonic
   (L2) regression — the "constrained inference" step, which cancels most of
   the noise on the long runs of equal low degrees that dominate social
   graphs;
4. round to integers in ``[0, n-1]``.

Steps 3 and 4 are post-processing and cost no additional privacy budget.
"""

from __future__ import annotations

import numpy as np

from repro.privacy.mechanisms import laplace_noise
from repro.utils.rng import RngLike
from repro.utils.validation import check_epsilon

#: Global sensitivity of the (sorted) degree sequence under edge adjacency.
DEGREE_SEQUENCE_SENSITIVITY = 2.0


def isotonic_regression(values: np.ndarray) -> np.ndarray:
    """L2 isotonic regression onto the non-decreasing cone.

    Uses the pool-adjacent-violators algorithm (PAVA), which solves the
    constrained least-squares problem in linear time.  This is the
    "minimum L2 distance sequence satisfying the ordering constraint" that
    Hay et al.'s dynamic program computes.

    The block stack lives in Python lists, with its top block in two
    locals: the loop is scalar, and list operations on Python floats cost a
    fraction of NumPy scalar indexing.  A block is pushed when the next one
    starts and popped by each merge; the bottom of the stack is an empty
    ``(0.0, 0)`` block, which no block ever merges with (``0.0 * count >
    total * 0`` is false for every float ``total``), so the loop never
    tests for an empty stack.  The float operations and their order are
    those of :func:`repro.testing.reference.isotonic_regression_reference`,
    so the output is bit-identical to it.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return arr.copy()

    # Each block is (total, count); blocks are merged while out of order.
    totals = []
    counts = []
    top_total = 0.0
    top_count = 0
    for total in arr.tolist():
        count = 1
        # Merge while the previous block's mean exceeds the new block's mean.
        while top_total * count > total * top_count:
            total = top_total + total
            count = top_count + count
            top_total = totals.pop()
            top_count = counts.pop()
        totals.append(top_total)
        counts.append(top_count)
        top_total = total
        top_count = count
    totals.append(top_total)
    counts.append(top_count)
    # Drop the empty bottom block.
    del totals[0], counts[0]
    return np.repeat(
        [total / count for total, count in zip(totals, counts)], counts
    )


def constrained_inference(noisy_sorted_sequence: np.ndarray) -> np.ndarray:
    """Post-process a noisy sorted degree sequence to restore monotonicity.

    This is the constrained-inference step of Hay et al.; it is pure
    post-processing of a DP output and therefore free of privacy cost.
    """
    return isotonic_regression(noisy_sorted_sequence)


def private_degree_sequence(degrees: np.ndarray, epsilon: float,
                            rng: RngLike = None,
                            round_to_int: bool = True) -> np.ndarray:
    """Compute an ε-DP estimate of the (unordered) degree sequence.

    Parameters
    ----------
    degrees:
        The exact degree sequence (any order).
    epsilon:
        Privacy budget for this release.
    rng:
        Seed or generator.
    round_to_int:
        When true (default), round the post-processed degrees to the nearest
        integer in ``[0, n-1]`` as Algorithm 6 does.

    Returns
    -------
    numpy.ndarray
        A non-decreasing estimate of the sorted degree sequence, of the same
        length as the input.
    """
    epsilon = check_epsilon(epsilon)
    arr = np.asarray(degrees, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"degrees must be one-dimensional, got shape {arr.shape}")
    n = arr.size
    if n == 0:
        return arr.copy()

    sorted_degrees = np.sort(arr)
    noisy = sorted_degrees + laplace_noise(
        DEGREE_SEQUENCE_SENSITIVITY / epsilon, size=n, rng=rng
    )
    smoothed = constrained_inference(noisy)
    if round_to_int:
        smoothed = np.clip(np.rint(smoothed), 0, max(0, n - 1)).astype(np.int64)
    return smoothed
