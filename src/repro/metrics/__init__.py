"""Evaluation metrics.

Implements the statistics Section 5.1 uses to compare synthetic graphs with
the original: mean absolute / relative error, the Kolmogorov–Smirnov statistic
and the Hellinger distance between degree distributions, the two clustering
coefficients, and a combined per-graph evaluation report matching the columns
of Tables 2-5.
"""

from repro.metrics.assortativity import (
    assortativity_profile,
    attribute_assortativity,
    same_attribute_edge_fraction,
)
from repro.metrics.distributions import (
    hellinger_distance,
    ks_statistic,
    mean_absolute_error,
    mean_relative_error,
    relative_error,
)
from repro.metrics.graph_metrics import (
    degree_distribution_from_sequence,
    degree_hellinger,
    degree_ks,
)
from repro.metrics.evaluation import (
    EvaluationReport,
    average_reports,
    evaluate_synthetic_graph,
)
from repro.metrics.incremental import prepare_original_graph

__all__ = [
    "attribute_assortativity",
    "assortativity_profile",
    "same_attribute_edge_fraction",
    "mean_absolute_error",
    "mean_relative_error",
    "relative_error",
    "ks_statistic",
    "hellinger_distance",
    "degree_ks",
    "degree_hellinger",
    "degree_distribution_from_sequence",
    "EvaluationReport",
    "evaluate_synthetic_graph",
    "average_reports",
    "prepare_original_graph",
]
