"""AGM-DP: the end-to-end differentially private workflow (Algorithm 3).

The workflow learns differentially private approximations of the three AGM
parameter sets from a sensitive input graph, then samples synthetic graphs
from those approximations without ever touching the input again.  By
sequential composition and post-processing invariance the whole pipeline is
ε-differentially private with ε = ε_X + ε_F + ε_M (Theorem 2).

Two structural backends are supported, matching the paper's experiments:

* ``"tricycle"`` (AGMDP-TriCL): ε split evenly four ways across Θ_X, Θ_F,
  the degree sequence and the triangle count;
* ``"fcl"`` (AGMDP-FCL): no triangle count needed, so half of the budget
  goes to the degree sequence and the rest is split between Θ_X and Θ_F.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.agm import AgmParameters
from repro.core.registry import get_backend
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
    degree sequence.
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

    @classmethod
    def even_tricycle(cls) -> "BudgetSplit":
        """The paper's default for AGMDP-TriCL: ε_X = ε_F = ε_S = ε_∆ = ε/4."""
        return cls.default_for("tricycle")

    @classmethod
    def even_fcl(cls) -> "BudgetSplit":
        """The paper's default for AGMDP-FCL: half to the degree sequence."""
        return cls.default_for("fcl")

    @classmethod
    def default_for(cls, backend: str) -> "BudgetSplit":
        """The paper's default split for ``backend``, from the registry.

        Registered backends declare their default split
        (:attr:`repro.core.registry.StructuralBackend.default_split`), so a
        plugin backend automatically gets a working default here.
        """
        return cls(**get_backend(backend).default_split)

    def weights(self) -> dict:
        """The top-level stage weights, for :meth:`PrivacyAccountant.split`."""
        return {
            "attributes": self.attributes,
            "correlations": self.correlations,
            "structural": self.structural,
        }


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
        A registered structural backend name (``"tricycle"``, ``"fcl"``, or a
        plugin registered through :mod:`repro.core.registry`).
    truncation_k:
        The truncation parameter ``k`` for the Θ_F estimator; defaults to the
        data-independent heuristic ``n^(1/3)``.
    budget_split:
        How to divide ε among the parameters; defaults to the paper's split
        for the chosen backend.
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
    backend_spec = get_backend(backend)
    if budget_split is None:
        budget_split = BudgetSplit.default_for(backend)
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
    structural = backend_spec.fit_dp(
        graph, stages["structural"], rng=generator,
        degree_fraction=budget_split.structural_degree_fraction,
    )

    parameters = AgmParameters(
        attribute_distribution=attribute_distribution,
        correlations=correlations,
        structural=structural,
        backend=backend,
    )
    return parameters, accountant

