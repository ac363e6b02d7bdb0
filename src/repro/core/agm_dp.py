"""AGM-DP: the end-to-end differentially private workflow (Algorithm 3).

The workflow learns differentially private approximations of the three AGM
parameter sets from a sensitive input graph, then samples synthetic graphs
from those approximations without ever touching the input again.  By
sequential composition and post-processing invariance the whole pipeline is
ε-differentially private with ε = ε_X + ε_F + ε_M (Theorem 2).

Both structural backends (:mod:`repro.core.backends`) default to the
paper's split, :data:`DEFAULT_BUDGET_SPLIT`: a quarter of ε each to Θ_X
and Θ_F and half to Θ_M.  AGMDP-TriCL (``"tricycle"``) divides that half
evenly between the degree sequence and the triangle count, so ε is split
four ways; AGMDP-FCL (``"fcl"``) needs no triangle count and spends the
whole half on the degree sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core import backends
from repro.core.agm import AgmParameters
from repro.graphs.attributed import AttributedGraph
from repro.graphs.truncation import default_truncation_parameter
from repro.params.attribute_distribution import learn_attributes_dp
from repro.params.correlations import learn_correlations_dp
from repro.privacy.accountant import PrivacyAccountant
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_epsilon


@dataclass(frozen=True)
class BudgetSplit:
    """How the global privacy budget ε is divided among the learned parameters.

    The fractions must be positive and sum to one.  ``structural`` covers the
    whole structural fit: for the TriCycLe backend it is further divided
    between the degree sequence and the triangle count by
    ``structural_degree_fraction``; the FCL backend spends all of it on the
    degree sequence.  :data:`DEFAULT_BUDGET_SPLIT` is the paper's split.
    """

    attributes: float
    correlations: float
    structural: float
    structural_degree_fraction: float = 0.5

    def __post_init__(self) -> None:
        parts = (self.attributes, self.correlations, self.structural)
        if any(p <= 0 for p in parts):
            raise ValueError("all budget fractions must be positive")
        total = sum(parts)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"budget fractions must sum to 1, got {total}")
        if not (0.0 < self.structural_degree_fraction < 1.0):
            raise ValueError("structural_degree_fraction must lie in (0, 1)")

    def weights(self) -> dict:
        """The top-level stage weights, for :meth:`PrivacyAccountant.split`."""
        return {
            "attributes": self.attributes,
            "correlations": self.correlations,
            "structural": self.structural,
        }


#: The paper's split for both backends (Section 5.1): ε_X = ε_F = ε/4 and
#: ε_M = ε/2, which TriCycLe halves between ε_S and ε_∆ (so each is ε/4)
#: and FCL spends on the degree sequence.
DEFAULT_BUDGET_SPLIT = BudgetSplit(attributes=0.25, correlations=0.25,
                                   structural=0.5)


def learn_agm_dp(graph: AttributedGraph, epsilon: float,
                 backend: str = "tricycle",
                 truncation_k: Optional[int] = None,
                 budget_split: Optional[BudgetSplit] = None,
                 rng: RngLike = None,
                 accountant: Optional[PrivacyAccountant] = None,
                 ) -> Tuple[AgmParameters, PrivacyAccountant]:
    """Learn ε-DP approximations of the AGM parameters (Algorithm 3, lines 2-5).

    Parameters
    ----------
    graph:
        The sensitive input graph ``G = (N, E, X)``.
    epsilon:
        The global privacy budget ε.
    backend:
        A structural backend, one of :data:`repro.core.backends.BACKENDS`
        (``"tricycle"`` or ``"fcl"``).
    truncation_k:
        The truncation parameter ``k`` for the Θ_F estimator; defaults to the
        data-independent heuristic ``n^(1/3)``.
    budget_split:
        How to divide ε among the parameters; defaults to the paper's
        split, :data:`DEFAULT_BUDGET_SPLIT`.
    rng:
        Seed or generator.
    accountant:
        Optional externally owned :class:`PrivacyAccountant` (e.g. the
        pipeline's); a fresh one for ``epsilon`` is created when omitted.

    Returns
    -------
    (parameters, accountant):
        The learned parameters and the accountant whose ledger shows how ε
        was spent per stage (``attributes``, ``correlations``,
        ``structural.degrees``, ...).
    """
    epsilon = check_epsilon(epsilon)
    backends.check(backend)
    if budget_split is None:
        budget_split = DEFAULT_BUDGET_SPLIT
    if truncation_k is None:
        truncation_k = default_truncation_parameter(graph.num_nodes)
    generator = ensure_rng(rng)

    if accountant is None:
        accountant = PrivacyAccountant(epsilon)
    elif abs(accountant.uncommitted - epsilon) > 1e-9 * max(epsilon, 1.0):
        # An external accountant must agree with the requested budget —
        # silently spending a different ε than the caller asked for would
        # falsify the composition argument.
        raise ValueError(
            f"epsilon ({epsilon:.6g}) does not match the accountant's "
            f"uncommitted budget ({accountant.uncommitted:.6g})"
        )
    stages = accountant.split(budget_split.weights())

    attribute_distribution = learn_attributes_dp(
        graph, stages["attributes"], rng=generator
    )
    correlations = learn_correlations_dp(
        graph, stages["correlations"], truncation_k=truncation_k, rng=generator
    )
    structural = backends.fit_dp(
        backend, graph, stages["structural"], rng=generator,
        degree_fraction=budget_split.structural_degree_fraction,
    )

    parameters = AgmParameters(
        attribute_distribution=attribute_distribution,
        correlations=correlations,
        structural=structural,
        backend=backend,
    )
    return parameters, accountant

