"""Drivers for the paper's figures.

* Figure 1 — MAE of the EdgeTruncation Θ_F estimator when using the best
  truncation parameter ``k`` versus the data-independent heuristic
  ``k = n^(1/3)``, across privacy budgets.
* Figures 2 and 3 — degree-distribution and local-clustering-coefficient
  CCDFs of the non-private structural models (FCL, TCL, TriCycLe) against
  the input graph.
* Figure 5 — MAE of the four Θ_F estimators (EdgeTruncation, smooth
  sensitivity, sample-and-aggregate, naive Laplace) across privacy budgets.

All drivers return plain lists of dictionaries (one per plotted point or
series) so benches can print them and downstream users can plot them with
any tool.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.datasets.registry import get_dataset_spec
from repro.experiments.runner import default_trials
from repro.graphs.attributed import AttributedGraph
from repro.graphs.statistics import clustering_ccdf, degree_ccdf
from repro.graphs.truncation import default_truncation_parameter
from repro.metrics.distributions import mean_absolute_error
from repro.models.chung_lu import ChungLuModel
from repro.models.tcl import TclModel, estimate_transitive_closure_probability
from repro.models.tricycle import TriCycLeModel
from repro.params.correlations import (
    connection_probabilities,
    learn_correlations_dp,
    learn_correlations_naive_laplace,
    learn_correlations_sample_aggregate,
    learn_correlations_smooth,
)
from repro.params.structural import fit_tricycle
from repro.utils.rng import RngLike, ensure_rng

Row = Dict[str, object]

#: The ε grid of Figures 1 and 5.
FIGURE_EPSILONS = (0.1, 0.2, 0.3, 0.5, 1.0)


def _load_graph(dataset: str, scale: Optional[float], seed: RngLike,
                graph: Optional[AttributedGraph]) -> AttributedGraph:
    """Resolve the input graph for a figure driver."""
    if graph is not None:
        return graph
    spec = get_dataset_spec(dataset)
    return spec.load(scale=scale, seed=seed)


# ----------------------------------------------------------------------
# Figure 1: truncation parameter heuristic
# ----------------------------------------------------------------------
def figure1_truncation_heuristic(dataset: str,
                                 epsilons: Sequence[float] = FIGURE_EPSILONS,
                                 candidate_ks: Optional[Sequence[int]] = None,
                                 trials: Optional[int] = None,
                                 scale: Optional[float] = None,
                                 seed: RngLike = 0,
                                 graph: Optional[AttributedGraph] = None
                                 ) -> List[Row]:
    """MAE of Θ̃_F with the best k versus the ``n^(1/3)`` heuristic (Figure 1)."""
    rng = ensure_rng(seed)
    graph = _load_graph(dataset, scale, rng, graph)
    trial_count = default_trials(trials)
    exact = connection_probabilities(graph)
    heuristic_k = default_truncation_parameter(graph.num_nodes)
    if candidate_ks is None:
        # A geometric sweep around the heuristic, capped at the max degree.
        d_max = int(graph.degrees().max()) if graph.num_nodes else 2
        candidate_ks = sorted({
            max(2, int(round(heuristic_k * factor)))
            for factor in (0.25, 0.5, 1.0, 2.0, 4.0)
        } | {max(2, d_max)})

    rows: List[Row] = []
    for epsilon in epsilons:
        errors_by_k = {}
        for k in candidate_ks:
            errors = [
                mean_absolute_error(
                    exact,
                    learn_correlations_dp(
                        graph, epsilon, truncation_k=int(k), rng=rng
                    ).probabilities,
                )
                for _ in range(trial_count)
            ]
            errors_by_k[int(k)] = float(np.mean(errors))
        heuristic_errors = [
            mean_absolute_error(
                exact,
                learn_correlations_dp(
                    graph, epsilon, truncation_k=heuristic_k, rng=rng
                ).probabilities,
            )
            for _ in range(trial_count)
        ]
        best_k = min(errors_by_k, key=errors_by_k.get)
        rows.append({
            "dataset": dataset,
            "epsilon": float(epsilon),
            "best_k": best_k,
            "mae_best_k": errors_by_k[best_k],
            "heuristic_k": heuristic_k,
            "mae_heuristic_k": float(np.mean(heuristic_errors)),
        })
    return rows


# ----------------------------------------------------------------------
# Figures 2 and 3: structural model comparison
# ----------------------------------------------------------------------
def _structural_models(graph: AttributedGraph) -> Dict[str, Callable[[], object]]:
    """Build the three non-private structural models fitted to ``graph``."""
    params = fit_tricycle(graph)
    rho = estimate_transitive_closure_probability(graph)
    return {
        "FCL": lambda: ChungLuModel(params.degrees),
        "TCL": lambda: TclModel(params.degrees, rho=rho),
        "TriCycLe": lambda: TriCycLeModel(
            params.degrees, num_triangles=params.num_triangles
        ),
    }


def figure2_degree_distributions(dataset: str, scale: Optional[float] = None,
                                 seed: RngLike = 0,
                                 graph: Optional[AttributedGraph] = None
                                 ) -> List[Row]:
    """Degree-distribution CCDF of the input and of each structural model (Figure 2)."""
    rng = ensure_rng(seed)
    graph = _load_graph(dataset, scale, rng, graph)
    rows: List[Row] = [{
        "dataset": dataset, "model": "input", "ccdf": degree_ccdf(graph),
    }]
    for name, factory in _structural_models(graph).items():
        synthetic = factory().generate(num_nodes=graph.num_nodes, rng=rng)
        rows.append({
            "dataset": dataset, "model": name, "ccdf": degree_ccdf(synthetic),
        })
    return rows


def figure3_clustering_distributions(dataset: str, scale: Optional[float] = None,
                                     seed: RngLike = 0,
                                     graph: Optional[AttributedGraph] = None
                                     ) -> List[Row]:
    """Local clustering-coefficient CCDF of the input and of each model (Figure 3)."""
    rng = ensure_rng(seed)
    graph = _load_graph(dataset, scale, rng, graph)
    rows: List[Row] = [{
        "dataset": dataset, "model": "input", "ccdf": clustering_ccdf(graph),
    }]
    for name, factory in _structural_models(graph).items():
        synthetic = factory().generate(num_nodes=graph.num_nodes, rng=rng)
        rows.append({
            "dataset": dataset, "model": name, "ccdf": clustering_ccdf(synthetic),
        })
    return rows


# ----------------------------------------------------------------------
# Figure 5: comparison of Θ_F estimators
# ----------------------------------------------------------------------
#: The estimators compared in Figure 5, keyed by their legend labels.
CORRELATION_METHODS = {
    "EdgeTruncation": lambda graph, epsilon, rng: learn_correlations_dp(
        graph, epsilon, rng=rng
    ),
    "Smooth": lambda graph, epsilon, rng: learn_correlations_smooth(
        graph, epsilon, rng=rng
    ),
    "S&A": lambda graph, epsilon, rng: learn_correlations_sample_aggregate(
        graph, epsilon, rng=rng
    ),
    "Laplace (baseline)": lambda graph, epsilon, rng: learn_correlations_naive_laplace(
        graph, epsilon, rng=rng
    ),
}


def figure5_correlation_methods(dataset: str,
                                epsilons: Sequence[float] = FIGURE_EPSILONS,
                                trials: Optional[int] = None,
                                scale: Optional[float] = None,
                                seed: RngLike = 0,
                                graph: Optional[AttributedGraph] = None
                                ) -> List[Row]:
    """MAE of the four Θ_F estimators across privacy budgets (Figure 5)."""
    rng = ensure_rng(seed)
    graph = _load_graph(dataset, scale, rng, graph)
    trial_count = default_trials(trials)
    exact = connection_probabilities(graph)

    rows: List[Row] = []
    for epsilon in epsilons:
        for method, estimator in CORRELATION_METHODS.items():
            errors = [
                mean_absolute_error(
                    exact, estimator(graph, float(epsilon), rng).probabilities
                )
                for _ in range(trial_count)
            ]
            rows.append({
                "dataset": dataset,
                "epsilon": float(epsilon),
                "method": method,
                "mae": float(np.mean(errors)),
            })
    return rows
