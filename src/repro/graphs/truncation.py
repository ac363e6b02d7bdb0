"""Edge truncation (Definition 2 of the paper).

The truncation operator µ(G, k) projects an arbitrary graph onto the set of
k-bounded graphs (maximum degree at most ``k``) by scanning the edges in a
fixed canonical order, lexicographic by ``(min, max)`` endpoints, and
deleting any edge whose endpoints *currently* have degree above ``k``.  The
paper (Proposition 1) shows that computing the attribute-edge correlation
counts on the truncated graph has global sensitivity ``2k`` under edge
adjacency — the property that makes the EdgeTruncation approach to Θ_F work.

The scan has a closed form.  In canonical order a node meets its incident
edges in ascending neighbour id.  A node of degree ``d > k`` therefore
loses its first ``d - k`` edges whatever their other endpoints do: while
all of them are deleted its current degree is still above ``k``.  From then
on its degree is at most ``k``, so it deletes no other edge.  An edge
survives exactly when each endpoint ranks the other among its ``k``
highest-id neighbours: µ(G, k) is the join of two per-node top-k relations.

Neighbouring graphs.  Toggling the edge ``(a, b)`` changes only the top-k
lists of ``a`` and ``b``.  Each gains or loses the other, which moves at
most one other neighbour across its list's boundary.  So at most three
edges change survival: ``(a, b)`` and one edge at each endpoint, and the
truncated count vector moves by at most 3 in L1.  Changing one node's
attribute vector re-encodes at most its ``k`` surviving edges, each moving
two counts by one: at most ``2k``.  Both are within Proposition 1's ``2k``
for ``k >= 2``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.graphs import dtypes
from repro.graphs.attributed import AttributedGraph


def truncated_edge_arrays(graph: AttributedGraph, k: int
                          ) -> Tuple[np.ndarray, np.ndarray]:
    """The canonical edge arrays ``(us, vs)`` of µ(G, k), in one pass.

    ``floor[x]`` is ``x``'s k-th highest-id neighbour when its degree
    exceeds ``k``, and 0 otherwise; the edge ``(u, v)`` of
    :meth:`~repro.graphs.attributed.AttributedGraph.edge_arrays` survives
    iff ``v >= floor[u]`` and ``u >= floor[v]`` (see the module doc).
    """
    if k < 1:
        raise ValueError(f"truncation parameter k must be >= 1, got {k}")
    indptr, indices = graph.csr()
    heavy = np.flatnonzero(graph.degrees() > k)
    floor = np.zeros(graph.num_nodes, dtype=indices.dtype)
    # Widen before subtracting: a narrow indptr minus k can overflow.
    floor[heavy] = indices[dtypes.widen(indptr[heavy + 1]) - k]
    us, vs = graph.edge_arrays()
    keep = (vs >= floor[us]) & (us >= floor[vs])
    return us[keep], vs[keep]


def truncate_edges(graph: AttributedGraph, k: int) -> AttributedGraph:
    """Apply the truncation operator µ(G, k) and return the truncated graph.

    Parameters
    ----------
    graph:
        Input attributed graph; it is not modified.
    k:
        Truncation (degree-bound) parameter, ``k >= 1``.

    Returns
    -------
    AttributedGraph
        A new graph whose maximum degree is at most ``k``.  Node attributes
        are copied unchanged: truncation only ever looks at degrees.
    """
    us, vs = truncated_edge_arrays(graph, k)
    truncated = AttributedGraph.from_edge_arrays(
        graph.num_nodes, us, vs, graph.num_attributes
    )
    if graph.num_attributes:
        truncated.set_all_attributes(graph.attributes)
    return truncated


def default_truncation_parameter(num_nodes: int) -> int:
    """The data-independent heuristic ``k = n^(1/3)`` recommended in §3.1.

    Because the number of nodes is public, deriving ``k`` from it does not
    consume privacy budget.  The result is always at least 2 so that
    Proposition 1 (which requires ``k > 1``) applies.
    """
    if num_nodes < 1:
        raise ValueError(f"num_nodes must be positive, got {num_nodes}")
    return max(2, int(round(num_nodes ** (1.0 / 3.0))))
