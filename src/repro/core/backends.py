"""The two structural backends of the paper: TriCycLe and FCL.

AGMDP-TriCL (``"tricycle"``) learns the degree sequence and the triangle
count and generates with TriCycLe; AGMDP-FCL (``"fcl"``) learns the degree
sequence only and generates with the bias-corrected fast Chung-Lu model
(Section 5).  Both spend the structural share of ε the same way under the
paper's split (:data:`repro.core.agm_dp.DEFAULT_BUDGET_SPLIT`): TriCycLe
divides it between its two statistics, FCL gives it all to the degrees.

This module is the one place that names the backends.  The learners, the
synthesizer, the pipeline, the release spec, the artifact reader and the
CLI validate and dispatch through it; an unknown name raises
``ValueError``.
"""

from __future__ import annotations

from typing import Optional, Tuple

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

#: The backend names, as specs, artifacts and the CLI spell them.
BACKENDS: Tuple[str, ...] = ("tricycle", "fcl")

_LABELS = {"tricycle": "TriCL", "fcl": "FCL"}
_PARAMETER_TYPES = {"tricycle": TriCycLeParameters, "fcl": FclParameters}


def check(backend: str) -> str:
    """Return ``backend``, or raise ``ValueError`` if it is not a backend."""
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    return backend


def label(backend: str) -> str:
    """The paper's model suffix in result tables (``TriCL``, ``FCL``)."""
    return _LABELS[check(backend)]


def parameter_type(backend: str) -> type:
    """The type of the Θ_M the backend fits."""
    return _PARAMETER_TYPES[check(backend)]


def fit(backend: str, graph: AttributedGraph) -> FclParameters:
    """Measure the backend's Θ_M exactly."""
    if check(backend) == "tricycle":
        return fit_tricycle(graph)
    return fit_fcl(graph)


def fit_dp(backend: str, graph: AttributedGraph, epsilon: EpsilonLike,
           rng: RngLike = None, degree_fraction: float = 0.5
           ) -> FclParameters:
    """ε-DP estimate of the backend's Θ_M.

    ``epsilon`` is a plain float or a
    :class:`~repro.privacy.accountant.SubBudget`, whose ledger then records
    the ``degrees`` (and, for TriCycLe, ``triangles``) spends.  TriCycLe
    gives ``degree_fraction`` of it to the degree sequence; FCL spends all
    of it there.
    """
    if check(backend) == "tricycle":
        return fit_tricycle_dp(graph, epsilon, rng=rng,
                               degree_fraction=degree_fraction)
    return fit_fcl_dp(graph, epsilon, rng=rng)


def build_model(backend: str, structural: FclParameters,
                memory_budget_mb: Optional[int] = None) -> StructuralModel:
    """The generative model for fitted ``structural`` parameters.

    TriCycLe always runs the orphan extension and its repair; FCL has none.
    ``memory_budget_mb`` is the generation memory budget in MiB, or
    ``None`` for the model's default.
    """
    if check(backend) == "tricycle":
        return TriCycLeModel(
            degrees=structural.degrees,
            num_triangles=structural.num_triangles,
            memory_budget_mb=memory_budget_mb,
        )
    return ChungLuModel(structural.degrees, memory_budget_mb=memory_budget_mb)
