"""Ablation studies for the design choices the paper leaves open.

* :func:`ablation_budget_split` — Section 4 notes that the even budget split
  "seems to work well in practice; though other strategies could also be
  used".  This ablation compares the even split with structure-heavy and
  correlation-heavy alternatives.
* :func:`ablation_truncation_parameter` — sweeps the truncation parameter
  ``k`` around the ``n^(1/3)`` heuristic (complementing Figure 1).
* :func:`ablation_triangle_estimators` — compares the Ladder mechanism with
  the smooth-sensitivity and naive-Laplace triangle-count estimators
  (Appendix C.3.2 argues Ladder is the state of the art).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.agm_dp import DEFAULT_BUDGET_SPLIT, BudgetSplit
from repro.core.pipeline import SynthesisPipeline
from repro.datasets.registry import get_dataset_spec
from repro.experiments.runner import default_trials, run_trials
from repro.graphs.attributed import AttributedGraph
from repro.graphs.statistics import triangle_count
from repro.graphs.truncation import default_truncation_parameter
from repro.metrics.distributions import mean_absolute_error, relative_error
from repro.params.correlations import connection_probabilities, learn_correlations_dp
from repro.privacy.ladder import (
    ladder_triangle_count,
    naive_laplace_triangle_count,
    smooth_sensitivity_triangle_count,
    triangle_local_sensitivity,
)
from repro.utils.rng import RngLike, ensure_rng

Row = Dict[str, object]

#: Budget-split strategies compared by the ablation.
BUDGET_SPLIT_STRATEGIES: Dict[str, BudgetSplit] = {
    "even": DEFAULT_BUDGET_SPLIT,
    "structure-heavy": BudgetSplit(attributes=0.15, correlations=0.15, structural=0.7),
    "correlation-heavy": BudgetSplit(attributes=0.2, correlations=0.5, structural=0.3),
}


def _load_graph(dataset: str, scale: Optional[float], seed: RngLike,
                graph: Optional[AttributedGraph]) -> AttributedGraph:
    if graph is not None:
        return graph
    return get_dataset_spec(dataset).load(scale=scale, seed=seed)


def ablation_budget_split(dataset: str, epsilon: float = 0.5,
                          trials: Optional[int] = None,
                          scale: Optional[float] = None, seed: RngLike = 0,
                          backend: str = "tricycle",
                          graph: Optional[AttributedGraph] = None) -> List[Row]:
    """Compare budget-split strategies at a fixed overall ε."""
    rng = ensure_rng(seed)
    graph = _load_graph(dataset, scale, rng, graph)
    trial_count = default_trials(trials)

    rows: List[Row] = []
    for strategy, split in BUDGET_SPLIT_STRATEGIES.items():
        pipeline = SynthesisPipeline(epsilon=epsilon, backend=backend,
                                     budget_split=split)
        report = run_trials(graph, pipeline, trial_count, rng=rng)
        rows.append({
            "dataset": dataset, "strategy": strategy, "epsilon": float(epsilon),
            **report.as_paper_row(),
        })
    return rows


def ablation_truncation_parameter(dataset: str, epsilon: float = 0.5,
                                  factors: Sequence[float] = (0.25, 0.5, 1.0, 2.0, 4.0),
                                  trials: Optional[int] = None,
                                  scale: Optional[float] = None,
                                  seed: RngLike = 0,
                                  graph: Optional[AttributedGraph] = None
                                  ) -> List[Row]:
    """Sweep the truncation parameter ``k`` as multiples of the ``n^(1/3)`` heuristic."""
    rng = ensure_rng(seed)
    graph = _load_graph(dataset, scale, rng, graph)
    trial_count = default_trials(trials)
    exact = connection_probabilities(graph)
    heuristic_k = default_truncation_parameter(graph.num_nodes)

    rows: List[Row] = []
    for factor in factors:
        k = max(2, int(round(heuristic_k * factor)))
        errors = [
            mean_absolute_error(
                exact,
                learn_correlations_dp(graph, epsilon, truncation_k=k, rng=rng)
                .probabilities,
            )
            for _ in range(trial_count)
        ]
        rows.append({
            "dataset": dataset, "epsilon": float(epsilon), "k": k,
            "k_over_heuristic": float(factor), "mae": float(np.mean(errors)),
        })
    return rows


def ablation_triangle_estimators(dataset: str,
                                 epsilons: Sequence[float] = (0.1, 0.25, 0.5, 1.0),
                                 trials: Optional[int] = None,
                                 scale: Optional[float] = None,
                                 seed: RngLike = 0,
                                 graph: Optional[AttributedGraph] = None
                                 ) -> List[Row]:
    """Relative error of the DP triangle-count estimators across ε."""
    rng = ensure_rng(seed)
    graph = _load_graph(dataset, scale, rng, graph)
    trial_count = default_trials(trials)
    # Hoist the two exact measurements out of the ε × mechanism × trial
    # loops: the graph never changes, so every estimator call reuses the
    # same triangle count and local sensitivity (identical releases — the
    # randomness consumption per call is unchanged).
    exact = triangle_count(graph)
    base_ls = triangle_local_sensitivity(graph)

    estimators = {
        "Ladder": lambda *args, **kw: ladder_triangle_count(
            *args, exact_count=exact, base_ls=base_ls, **kw),
        "SmoothSensitivity": lambda *args, **kw: smooth_sensitivity_triangle_count(
            *args, exact_count=exact, base_ls=base_ls, **kw),
        "NaiveLaplace": lambda *args, **kw: naive_laplace_triangle_count(
            *args, exact_count=exact, **kw),
    }
    rows: List[Row] = []
    for epsilon in epsilons:
        for name, estimator in estimators.items():
            errors = [
                relative_error(exact, estimator(graph, float(epsilon), rng=rng))
                for _ in range(trial_count)
            ]
            rows.append({
                "dataset": dataset, "epsilon": float(epsilon), "estimator": name,
                "relative_error": float(np.mean(errors)),
            })
    return rows
