"""Uniform-edge baselines.

Section 5.2 calibrates the degree-statistic error rates against "the baseline
model that assigns edges to nodes uniformly at random": a graph with the same
number of nodes and edges as the input but no degree structure at all.
:class:`UniformEdgeModel` implements exactly that (a G(n, m) graph) and
:class:`ErdosRenyiModel` provides the G(n, p) variant for completeness.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graphs.attributed import AttributedGraph
from repro.models.base import EdgeAcceptance, StructuralModel
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_fraction, check_positive_int

#: :class:`UniformEdgeModel` makes at most this many draws per target edge.
_MAX_ATTEMPT_FACTOR = 50


def _uniform_pi(num_nodes: Optional[int]) -> np.ndarray:
    """The uniform π over ``num_nodes`` nodes (required: these models have
    no node count of their own)."""
    n = check_positive_int(num_nodes, "num_nodes")
    return np.full(n, 1.0 / n)


class UniformEdgeModel(StructuralModel):
    """G(n, m): exactly ``num_edges`` edges placed uniformly at random."""

    def __init__(self, num_edges: int) -> None:
        self._num_edges = check_positive_int(num_edges, "num_edges", minimum=0)

    @property
    def target_num_edges(self) -> int:
        """The requested edge count ``m``."""
        return self._num_edges

    def pi_distribution(self, num_nodes: Optional[int] = None) -> np.ndarray:
        """Uniform π: both endpoints of a proposal are uniform node draws."""
        return _uniform_pi(num_nodes)

    def generate(self, num_nodes: int, rng: RngLike = None,
                 acceptance: Optional[EdgeAcceptance] = None) -> AttributedGraph:
        """Generate a uniform random graph with ``num_nodes`` nodes."""
        n = check_positive_int(num_nodes, "num_nodes")
        generator = ensure_rng(rng)
        num_attributes = acceptance.num_attributes if acceptance is not None else 0
        graph = AttributedGraph(n, num_attributes)
        if n < 2:
            return graph
        max_possible = n * (n - 1) // 2
        target = min(self._num_edges, max_possible)
        attempts = 0
        max_attempts = _MAX_ATTEMPT_FACTOR * max(target, 1)
        while graph.num_edges < target and attempts < max_attempts:
            attempts += 1
            u = int(generator.integers(n))
            v = int(generator.integers(n))
            if u == v or graph.has_edge(u, v):
                continue
            if acceptance is not None and not acceptance.accepts(u, v, generator):
                continue
            graph.add_edge(u, v)
        return graph


class ErdosRenyiModel(StructuralModel):
    """G(n, p): every edge present independently with probability ``p``."""

    def __init__(self, edge_probability: float) -> None:
        self._p = check_fraction(edge_probability, "edge_probability")

    @property
    def edge_probability(self) -> float:
        """The independent edge probability ``p``."""
        return self._p

    @property
    def target_num_edges(self) -> int:
        """Expected edge count is not fixed; returns 0 by convention."""
        return 0

    def pi_distribution(self, num_nodes: Optional[int] = None) -> np.ndarray:
        """Uniform π: every pair of distinct nodes is equally likely."""
        return _uniform_pi(num_nodes)

    def generate(self, num_nodes: int, rng: RngLike = None,
                 acceptance: Optional[EdgeAcceptance] = None) -> AttributedGraph:
        """Generate a G(n, p) graph with ``num_nodes`` nodes."""
        n = check_positive_int(num_nodes, "num_nodes")
        generator = ensure_rng(rng)
        num_attributes = acceptance.num_attributes if acceptance is not None else 0
        graph = AttributedGraph(n, num_attributes)
        if n < 2 or self._p == 0.0:
            return graph
        for u in range(n):
            if self._p == 1.0:
                partners = np.arange(u + 1, n)
            else:
                draws = generator.random(n - u - 1)
                partners = np.nonzero(draws < self._p)[0] + u + 1
            for v in partners:
                v = int(v)
                if acceptance is not None and not acceptance.accepts(u, v, generator):
                    continue
                graph.add_edge(u, v)
        return graph
