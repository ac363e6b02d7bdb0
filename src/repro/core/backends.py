"""Built-in structural backends: TriCycLe (AGMDP-TriCL) and FCL (AGMDP-FCL).

Each backend bundles the exact and DP parameter fitters from
:mod:`repro.params.structural` with the generative model that consumes the
parameters, and declares its named budget stages plus the paper's default
global budget split (Section 5.1: TriCycLe splits ε evenly four ways across
Θ_X, Θ_F, the degree sequence and the triangle count; FCL has no triangle
count, so the degree sequence receives the whole structural half).

Importing this module registers both backends; the registry does so lazily
on first access.
"""

from __future__ import annotations

from typing import Optional

from repro.core.registry import StructuralBackend, register_backend
from repro.graphs.attributed import AttributedGraph
from repro.models.base import StructuralModel
from repro.models.chung_lu import ChungLuModel
from repro.models.tricycle import TriCycLeModel
from repro.params.structural import (
    FclParameters,
    TriCycLeParameters,
    fit_fcl,
    fit_fcl_dp,
    fit_tricycle,
    fit_tricycle_dp,
)
from repro.privacy.accountant import EpsilonLike
from repro.utils.rng import RngLike


@register_backend
class TriCycLeBackend(StructuralBackend):
    """TriCycLe: degree sequence + triangle count, rewiring generator."""

    name = "tricycle"
    label = "TriCL"
    parameter_type = TriCycLeParameters
    budget_stages = ("degrees", "triangles")
    #: ε_X = ε_F = ε_S = ε_∆ = ε/4 (the structural half is split evenly).
    default_split = {
        "attributes": 0.25,
        "correlations": 0.25,
        "structural": 0.5,
        "structural_degree_fraction": 0.5,
    }

    def fit(self, graph: AttributedGraph) -> TriCycLeParameters:
        return fit_tricycle(graph)

    def fit_dp(self, graph: AttributedGraph, epsilon: EpsilonLike,
               rng: RngLike = None, **options) -> TriCycLeParameters:
        degree_fraction = float(options.get("degree_fraction", 0.5))
        return fit_tricycle_dp(
            graph, epsilon, rng=rng, degree_fraction=degree_fraction
        )

    def build_model(self, parameters: TriCycLeParameters,
                    handle_orphans: bool = True,
                    memory_budget_mb: Optional[int] = None
                    ) -> StructuralModel:
        self.validate_parameters(parameters)
        return TriCycLeModel(
            degrees=parameters.degrees,
            num_triangles=parameters.num_triangles,
            handle_orphans=handle_orphans,
            memory_budget_mb=memory_budget_mb,
        )


@register_backend
class FclBackend(StructuralBackend):
    """Fast Chung-Lu: degree sequence only, batched edge sampling."""

    name = "fcl"
    label = "FCL"
    parameter_type = FclParameters
    budget_stages = ("degrees",)
    #: Half of ε to the degree sequence, a quarter each to Θ_X and Θ_F.
    default_split = {
        "attributes": 0.25,
        "correlations": 0.25,
        "structural": 0.5,
        "structural_degree_fraction": 0.5,
    }

    def fit(self, graph: AttributedGraph) -> FclParameters:
        return fit_fcl(graph)

    def fit_dp(self, graph: AttributedGraph, epsilon: EpsilonLike,
               rng: RngLike = None, **options) -> FclParameters:
        return fit_fcl_dp(graph, epsilon, rng=rng)

    def build_model(self, parameters: FclParameters,
                    handle_orphans: bool = True,
                    memory_budget_mb: Optional[int] = None
                    ) -> StructuralModel:
        self.validate_parameters(parameters)
        return ChungLuModel(
            parameters.degrees, bias_correction=True,
            memory_budget_mb=memory_budget_mb,
        )
