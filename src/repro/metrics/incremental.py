"""The evaluation baseline: prime the input graph once, score many samples.

The Monte-Carlo runner and the pipeline's evaluate stage compare every
sampled graph against the *same* original, and the original never changes
between trials.  :func:`prepare_original_graph` turns the original's
statistics memo on
(:meth:`~repro.graphs.attributed.AttributedGraph.enable_statistics_memo`)
and fills it with the triangle census (one per-node scan) and the Θ_F
connection probabilities, so every later report reads them back instead
of recomputing them.

The memo is plain picklable state (an int, an ``int64`` array, a float
array), so the runner's worker processes receive the primed original
through the pool initializer, and a pickled copy of a primed graph is
primed too.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.attributed import AttributedGraph
from repro.graphs.statistics import triangle_count
from repro.params.correlations import connection_probabilities

#: Memo key under which a graph's Θ_F probabilities are kept.
CORRELATIONS_KEY = "connection_probabilities"


def cached_connection_probabilities(graph: AttributedGraph) -> np.ndarray:
    """The graph's Θ_F probabilities, kept while its statistics memo is on."""
    return graph.memoized(
        CORRELATIONS_KEY, lambda: connection_probabilities(graph)
    )


def prepare_original_graph(graph: AttributedGraph) -> None:
    """Make ``graph`` a warm evaluation baseline (idempotent).

    Turns the statistics memo on and fills it with the triangle census and
    the Θ_F probabilities; calling it again on an unchanged graph scans
    nothing.
    """
    graph.enable_statistics_memo()
    triangle_count(graph)
    cached_connection_probabilities(graph)
