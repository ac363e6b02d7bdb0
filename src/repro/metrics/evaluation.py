"""Per-graph evaluation reports matching the columns of Tables 2-5.

For every synthetic graph the paper reports, relative to the input graph:

* ``theta_f_mre`` — mean relative error of the attribute–edge correlation
  probabilities (column ``Θ_F``);
* ``theta_f_hellinger`` — Hellinger distance between the two correlation
  distributions (column ``H_{Θ_F}``);
* ``degree_ks`` / ``degree_hellinger`` — KS statistic and Hellinger distance
  between degree distributions (columns ``KS_S`` and ``H_S``);
* ``triangle_mre`` — relative error of the triangle count (column ``n_∆``);
* ``global_clustering_mre`` / ``average_clustering_mre`` — relative errors of
  the global and average-local clustering coefficients (columns ``C`` and
  ``C̄``);
* ``edge_count_mre`` — relative error of the edge count (column ``m``).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Iterable, List

import numpy as np

from repro.graphs.attributed import AttributedGraph
from repro.metrics.distributions import (
    hellinger_distance,
    mean_relative_error,
    relative_error,
)
from repro.metrics.graph_metrics import degree_hellinger, degree_ks
from repro.params.correlations import connection_probabilities


@dataclass(frozen=True)
class EvaluationReport:
    """Error metrics of one synthetic graph relative to the original."""

    theta_f_mre: float
    theta_f_hellinger: float
    degree_ks: float
    degree_hellinger: float
    triangle_mre: float
    average_clustering_mre: float
    global_clustering_mre: float
    edge_count_mre: float

    def as_dict(self) -> Dict[str, float]:
        """Return the report as an ordered plain dictionary."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    #: Mapping from attribute names to the column labels used in the paper.
    PAPER_COLUMNS = {
        "theta_f_mre": "ThetaF",
        "theta_f_hellinger": "H_ThetaF",
        "degree_ks": "KS_S",
        "degree_hellinger": "H_S",
        "triangle_mre": "n_tri",
        "average_clustering_mre": "C_avg",
        "global_clustering_mre": "C_global",
        "edge_count_mre": "m",
    }

    def as_paper_row(self) -> Dict[str, float]:
        """Return the report keyed by the paper's column labels."""
        return {label: getattr(self, name) for name, label in self.PAPER_COLUMNS.items()}


def _structural_metrics(graph: AttributedGraph
                        ) -> tuple:  # (triangles, avg local C, global C)
    """One-scan triangle/clustering metrics through the graph's accelerator.

    Attaches an accelerator if needed (so the triangle census runs once and
    the wedge count is O(1)) and derives the two clustering coefficients
    with the exact float operations of :func:`average_local_clustering` and
    :func:`global_clustering_coefficient` — the results are bit-identical
    to calling those kernels individually.
    """
    from repro.metrics.incremental import ensure_accelerator

    accel = ensure_accelerator(graph)
    triangles = accel.triangle_count()
    per_node = accel.triangles_per_node()
    wedges = accel.wedge_count()
    degrees = graph.degrees().astype(np.float64)
    possible = degrees * (degrees - 1) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        coefficients = np.where(possible > 0, per_node / possible, 0.0)
    average = float(coefficients.mean()) if coefficients.size else 0.0
    global_coefficient = 3.0 * triangles / wedges if wedges else 0.0
    return triangles, average, global_coefficient


def evaluate_synthetic_graph(original: AttributedGraph,
                             synthetic: AttributedGraph) -> EvaluationReport:
    """Compute the full Table 2-5 metric row for one synthetic graph.

    The structural metrics of both graphs are served through attached
    :class:`~repro.graphs.accel.MetricsAccelerator` instances — one
    triangle census per graph instead of three, O(1) when already primed —
    and the original's Θ_F probabilities are memoized across calls.  The
    report is bit-identical to the from-scratch evaluation in
    :mod:`repro.testing.reference` (pinned by
    ``tests/metrics/test_incremental.py``).
    """
    from repro.metrics.incremental import cached_connection_probabilities

    original_correlations = cached_connection_probabilities(original)
    synthetic_correlations = connection_probabilities(synthetic)
    original_triangles, original_average, original_global = \
        _structural_metrics(original)
    synthetic_triangles, synthetic_average, synthetic_global = \
        _structural_metrics(synthetic)
    return EvaluationReport(
        theta_f_mre=mean_relative_error(
            original_correlations, synthetic_correlations
        ),
        theta_f_hellinger=hellinger_distance(
            original_correlations, synthetic_correlations
        ),
        degree_ks=degree_ks(original, synthetic),
        degree_hellinger=degree_hellinger(original, synthetic),
        triangle_mre=relative_error(original_triangles, synthetic_triangles),
        average_clustering_mre=relative_error(
            original_average, synthetic_average
        ),
        global_clustering_mre=relative_error(
            original_global, synthetic_global
        ),
        edge_count_mre=relative_error(
            original.num_edges, synthetic.num_edges
        ),
    )


def average_reports(reports: Iterable[EvaluationReport]) -> EvaluationReport:
    """Average a collection of reports field-by-field (Monte-Carlo aggregation)."""
    report_list: List[EvaluationReport] = list(reports)
    if not report_list:
        raise ValueError("cannot average an empty collection of reports")
    averaged = {
        f.name: float(np.mean([getattr(report, f.name) for report in report_list]))
        for f in fields(EvaluationReport)
    }
    return EvaluationReport(**averaged)
