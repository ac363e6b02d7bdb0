"""Experiment drivers that regenerate the paper's tables and figures.

Each driver returns plain data structures (lists of dictionaries) so it can
be used by the benchmark harness, the examples and the CLI alike.  Each
table cell is one :class:`~repro.core.pipeline.SynthesisPipeline`, whose
trials the Monte-Carlo runner (:func:`run_trials`) averages.  Trial counts
default to small values appropriate for a laptop run and can be raised
through the ``REPRO_TRIALS`` environment variable to approach the paper's
Monte-Carlo precision.
"""

from repro.experiments.runner import (
    TrialsResult,
    default_trials,
    default_workers,
    run_trials,
    run_trials_detailed,
)
from repro.experiments.tables import (
    dataset_properties_table,
    format_table,
    results_table,
)
from repro.experiments.figures import (
    figure1_truncation_heuristic,
    figure2_degree_distributions,
    figure3_clustering_distributions,
    figure5_correlation_methods,
)
from repro.experiments.ablations import (
    ablation_budget_split,
    ablation_triangle_estimators,
    ablation_truncation_parameter,
)

__all__ = [
    "TrialsResult",
    "default_trials",
    "default_workers",
    "run_trials",
    "run_trials_detailed",
    "results_table",
    "dataset_properties_table",
    "format_table",
    "figure1_truncation_heuristic",
    "figure2_degree_distributions",
    "figure3_clustering_distributions",
    "figure5_correlation_methods",
    "ablation_budget_split",
    "ablation_truncation_parameter",
    "ablation_triangle_estimators",
]
