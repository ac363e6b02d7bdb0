"""Attributed graph substrate.

This package provides the graph data structure used throughout the library
(:class:`~repro.graphs.attributed.AttributedGraph`), exact structural
statistics (degrees, triangles, wedges, clustering coefficients), the edge
truncation operator from Definition 2 of the paper, connected-component
utilities and simple edge-list / attribute-table I/O.
"""

from repro.graphs.attributed import AttributedGraph
from repro.graphs.components import (
    BudgetedReachability,
    component_labels,
    connected_components,
    largest_connected_component,
)
from repro.graphs.statistics import (
    average_local_clustering,
    degree_sequence,
    global_clustering_coefficient,
    local_clustering_coefficients,
    max_common_neighbours,
    summary,
    triangle_count,
    wedge_count,
)
from repro.graphs.truncation import truncate_edges

__all__ = [
    "AttributedGraph",
    "BudgetedReachability",
    "component_labels",
    "connected_components",
    "largest_connected_component",
    "degree_sequence",
    "triangle_count",
    "wedge_count",
    "local_clustering_coefficients",
    "average_local_clustering",
    "global_clustering_coefficient",
    "max_common_neighbours",
    "summary",
    "truncate_edges",
]
