"""Acceptance probabilities for attribute-aware edge sampling.

AGM couples an attribute-agnostic structural model with the target
attribute–edge correlation distribution Θ_F through accept/reject sampling
(Section 2.2 and Algorithm 3, lines 9-18): after generating a temporary edge
set, the observed correlations Θ'_F are measured, the ratios
``R(y) = Θ_F(y) / Θ'_F(y)`` (optionally folded into the previous round's
acceptance values) are normalised by their supremum, and the result becomes
the per-configuration probability of accepting a proposed edge in the next
round.  Configurations the target says should be rarer than observed receive
acceptance below one; the most under-represented configuration is always
accepted.

The first round's Θ'_F is :func:`expected_correlations`, the closed-form
expectation over the structural model's unfiltered proposals; later rounds
observe the previous round's graph with :func:`observed_correlations`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.attributes.encoding import EdgeConfigurationEncoder
from repro.graphs.attributed import AttributedGraph
from repro.params.correlations import connection_probabilities

#: Ratio assigned to configurations never proposed by the structural model.
#: They cannot be over-represented, so they get the maximum acceptance.
_UNOBSERVED_RATIO = np.inf

#: Lower bound on the proposal-weighted acceptance rate.  Because the
#: structural samplers keep proposing edges until the target edge count is
#: reached, the *relative* acceptance values fully determine the attribute
#: composition of the output; a uniform rescaling only affects how many
#: proposals are needed.  Chung-Lu draws its accepted pairs directly, so
#: its time does not depend on the rate; the floor still bounds the
#: proposals that orphan repair, TriCycLe rewiring and TCL spend on their
#: acceptance coins.  It is part of the model, not a tuning knob: raising
#: the rate clips configurations pushed above one (exactly the most
#: under-represented ones, which the paper's supremum normalisation already
#: pins to one), so changing it changes ``A``.
_MIN_EXPECTED_ACCEPTANCE = 0.1


def compute_acceptance_probabilities(target: np.ndarray, observed: np.ndarray,
                                     previous: Optional[np.ndarray] = None
                                     ) -> np.ndarray:
    """Compute the acceptance vector ``A`` from target and observed correlations.

    Parameters
    ----------
    target:
        The desired Θ_F probabilities (length = number of edge configurations).
    observed:
        The correlations Θ'_F measured in the current temporary graph.
    previous:
        The acceptance vector from the previous iteration (``A_old`` in
        Algorithm 3); ratios are multiplied into it so successive rounds
        compound their corrections.

    Returns
    -------
    numpy.ndarray
        Acceptance probabilities in ``(0, 1]`` with at least one entry equal
        to one (the supremum normalisation).
    """
    target = np.asarray(target, dtype=float)
    observed = np.asarray(observed, dtype=float)
    if target.shape != observed.shape:
        raise ValueError(
            f"target and observed must have the same shape, got {target.shape} "
            f"vs {observed.shape}"
        )
    if previous is not None:
        previous = np.asarray(previous, dtype=float)
        if previous.shape != target.shape:
            raise ValueError("previous acceptance vector has the wrong shape")

    # Divide only where the quotient is representable: a zero observed mass
    # is unobserved by definition, and a subnormal one (e.g. 1e-310) would
    # overflow the division to infinity — the same "effectively unobserved"
    # verdict — while leaking a RuntimeWarning that ``np.errstate`` can only
    # suppress by widening to ``over``.  Routing both straight to the
    # unobserved ratio keeps the result identical and the computation clean
    # of floating-point faults.
    representable = observed >= target / np.finfo(float).max
    ratios = np.full(target.shape, _UNOBSERVED_RATIO)
    np.divide(target, observed, out=ratios,
              where=(observed > 0) & representable)

    # Configurations absent from both distributions are neutral.
    ratios = np.where((observed == 0) & (target == 0), 1.0, ratios)

    if previous is not None:
        ratios = ratios * previous

    finite = ratios[np.isfinite(ratios)]
    if finite.size == 0 or finite.max() <= 0:
        # Degenerate: nothing observed at all; accept everything.
        return np.ones_like(target)
    ceiling = finite.max()
    ratios = np.where(np.isfinite(ratios), ratios, ceiling)

    supremum = ratios.max()
    if supremum <= 0:
        return np.ones_like(target)
    acceptance = ratios / supremum

    # Keep the expected (proposal-weighted) acceptance rate above a floor so
    # a single outlier ratio cannot starve edge generation; see the note on
    # _MIN_EXPECTED_ACCEPTANCE above.  Rescaling interacts with the clip at
    # one, so repeat until the floor is met (in the worst case everything
    # saturates at one and the rate equals the total observed mass).
    observed_mass = float(observed.sum())
    if observed_mass > 0:
        for _ in range(50):
            expected_rate = float(np.dot(observed, np.clip(acceptance, 0.0, 1.0)))
            if expected_rate >= min(_MIN_EXPECTED_ACCEPTANCE, observed_mass) \
                    or expected_rate <= 0.0:
                break
            acceptance = np.clip(
                acceptance * (_MIN_EXPECTED_ACCEPTANCE / expected_rate), 0.0, 1.0
            )

    # Guard against zero acceptance, which would make a configuration
    # unreachable forever; keep a tiny floor instead.
    return np.clip(acceptance, 1e-6, 1.0)


def observed_correlations(graph: AttributedGraph) -> np.ndarray:
    """Measure Θ'_F on a synthetic graph whose attributes are already assigned."""
    return connection_probabilities(graph)


def expected_correlations(pi: np.ndarray, node_codes: np.ndarray,
                          num_attributes: int) -> np.ndarray:
    """Θ'_F in expectation over unfiltered π×π proposals, self-loops dropped.

    With ``Π_a`` and ``S_a`` the sums of ``π_u`` and ``π_u²`` over the nodes
    of code ``a``, configuration ``{a, b}`` with ``a < b`` has mass
    ``2 · Π_a · Π_b`` and ``{a, a}`` has ``Π_a² − S_a``: the acyclic join
    ``R(u, a) ⋈ R(b, v)`` of the ordered proposals, marginalised over the
    node codes.  The masses are normalised like
    :func:`~repro.params.correlations.connection_probabilities`, which
    returns the uniform vector for an edgeless graph; so does this when
    there is no mass (all of π on one node).  Costs ``O(n + q²)``.
    """
    encoder = EdgeConfigurationEncoder(num_attributes)
    q = encoder.node_encoder.num_configurations
    pi = np.asarray(pi, dtype=float)
    codes = np.asarray(node_codes, dtype=np.int64)
    mass = np.bincount(codes, weights=pi, minlength=q)
    squares = np.bincount(codes, weights=pi * pi, minlength=q)
    a, b = np.triu_indices(q)
    cells = np.where(a == b, mass[a] * mass[a] - squares[a],
                     2.0 * mass[a] * mass[b])
    expected = np.zeros(encoder.num_configurations)
    # Rounding can leave Π_a² − S_a a hair below zero; it is a mass.
    expected[encoder.encode_codes_array(a, b)] = np.maximum(cells, 0.0)
    total = expected.sum()
    if total <= 0:
        return np.full(expected.shape, 1.0 / expected.size)
    return expected / total
