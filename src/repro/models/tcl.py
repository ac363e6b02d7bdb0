"""The Transitive Chung-Lu (TCL) model of Pfeiffer et al.

TCL is the structural baseline the paper compares TriCycLe against
(Section 3.3, Figures 2 and 3).  It extends Chung-Lu with a transitive
closure probability ρ: when refining the seed graph, with probability ρ a
new edge connects a node to a random two-hop neighbour (creating a
triangle), otherwise both endpoints are drawn from the π distribution.  After
every insertion, the oldest seed edge is retired so the expected degree
sequence is preserved; refinement stops when every seed edge has been
replaced.  The orphan extension is always on, as in TriCycLe: degree-one
nodes get zero weight in π and the Algorithm 2 repair wires up the output.

ρ is learned from the input graph by expectation-maximisation over the
latent "was this edge formed transitively?" indicator — the very step whose
privacy cost the paper cannot bound, which is why TriCycLe replaces ρ with a
triangle count.  TCL is therefore only offered as a *non-private* baseline.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from typing import Deque, Optional, Tuple

import numpy as np

from repro.graphs.attributed import AttributedGraph
from repro.models.base import EdgeAcceptance, StructuralModel
from repro.models.chung_lu import ChungLuModel, build_pi_distribution
from repro.models.postprocess import post_process_graph
from repro.models.rewiring import _SortedAdjacency
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.sampling import PresampledStream, WeightedSampler
from repro.utils.validation import check_fraction

Edge = Tuple[int, int]


def estimate_transitive_closure_probability(graph: AttributedGraph,
                                            num_iterations: int = 20,
                                            initial_rho: float = 0.5) -> float:
    """Estimate the TCL transitive-closure probability ρ via EM.

    For every edge ``{i, j}`` we compute the likelihood of it having been
    produced by the transitive proposal (walk to a random neighbour ``k`` of
    ``i``, then to a random neighbour of ``k``) versus the Chung-Lu proposal
    (both endpoints from π).  The E-step computes per-edge responsibilities,
    the M-step sets ρ to their mean.  Degenerate graphs (no edges) return the
    initial value.
    """
    if num_iterations < 1:
        raise ValueError("num_iterations must be >= 1")
    rho = check_fraction(initial_rho, "initial_rho", inclusive=False)

    m = graph.num_edges
    if m == 0:
        return rho
    degrees = graph.degrees().astype(float)
    two_m = degrees.sum()
    if two_m <= 0:
        return rho

    edges = graph.edge_list()
    transitive_likelihood = np.zeros(len(edges))
    chung_lu_likelihood = np.zeros(len(edges))
    for index, (u, v) in enumerate(edges):
        common = graph.common_neighbors(u, v)
        # P(transitive proposal lands on {u, v}) — start at u (prob d_u/2m),
        # walk through a common neighbour k (1/d_u), then to v (1/d_k);
        # plus the symmetric path starting at v.
        p_trans = 0.0
        for k in common:
            dk = degrees[k]
            if dk <= 0:
                continue
            p_trans += (degrees[u] / two_m) * (1.0 / max(degrees[u], 1.0)) * (1.0 / dk)
            p_trans += (degrees[v] / two_m) * (1.0 / max(degrees[v], 1.0)) * (1.0 / dk)
        transitive_likelihood[index] = p_trans
        chung_lu_likelihood[index] = 2.0 * (degrees[u] / two_m) * (degrees[v] / two_m)

    for _ in range(num_iterations):
        numerator = rho * transitive_likelihood
        denominator = numerator + (1.0 - rho) * chung_lu_likelihood
        with np.errstate(divide="ignore", invalid="ignore"):
            responsibilities = np.where(denominator > 0, numerator / denominator, 0.0)
        new_rho = float(responsibilities.mean())
        new_rho = min(max(new_rho, 1e-6), 1.0 - 1e-6)
        if abs(new_rho - rho) < 1e-9:
            rho = new_rho
            break
        rho = new_rho
    return rho


class TclModel(StructuralModel):
    """The Transitive Chung-Lu generator.

    Parameters
    ----------
    degrees:
        Desired degree sequence.
    rho:
        Transitive closure probability in ``(0, 1)``; learn it from an input
        graph with :func:`estimate_transitive_closure_probability`.
    """

    def __init__(self, degrees: np.ndarray, rho: float) -> None:
        self._degrees = np.asarray(degrees, dtype=np.int64)
        if self._degrees.ndim != 1:
            raise ValueError("degrees must be one-dimensional")
        if np.any(self._degrees < 0):
            raise ValueError("degrees must be non-negative")
        self._rho = check_fraction(rho, "rho", inclusive=False)

    @property
    def degrees(self) -> np.ndarray:
        """The desired degree sequence."""
        return self._degrees

    @property
    def rho(self) -> float:
        """The transitive closure probability."""
        return self._rho

    @property
    def target_num_edges(self) -> int:
        """Target number of edges ``m = sum(d_i) / 2``."""
        return int(self._degrees.sum() // 2)

    def pi_distribution(self) -> np.ndarray:
        """The Chung-Lu seed's π (degree-one nodes zeroed), which the
        transitive walk also starts from."""
        return build_pi_distribution(self._degrees, True)

    def generate(self, num_nodes: Optional[int] = None, rng: RngLike = None,
                 acceptance: Optional[EdgeAcceptance] = None) -> AttributedGraph:
        """Generate a TCL graph: Chung-Lu seed followed by ρ-controlled rewiring."""
        n = self._degrees.size if num_nodes is None else int(num_nodes)
        if n != self._degrees.size:
            raise ValueError(
                f"num_nodes ({n}) must match the degree sequence length "
                f"({self._degrees.size})"
            )
        generator = ensure_rng(rng)

        seed_model = ChungLuModel(self._degrees, exclude_degree_one=True)
        graph = seed_model.generate(rng=generator, acceptance=acceptance)
        pi = self.pi_distribution()

        seed_edges: Deque[Edge] = deque(graph.edges())
        replacements_remaining = len(seed_edges)
        max_attempts = 30 * max(1, replacements_remaining)
        attempts = 0
        # π draws come from a cursor-backed presampled block (the sampler's
        # searchsorted path is stream-identical to scalar draws), so the
        # proposal loop pays one vectorized refill per block instead of a
        # Python-level binary search per endpoint.
        stream = PresampledStream(WeightedSampler(pi), generator)
        # Sorted adjacency rows shared with TriCycLe: O(1) uniform neighbour
        # picks by index arithmetic instead of a per-proposal set scan.
        graph.materialize_neighbor_sets()
        adjacency = _SortedAdjacency(graph)

        while replacements_remaining > 0 and attempts < max_attempts \
                and graph.num_edges > 0:
            attempts += 1
            proposal = self._propose_edge(adjacency, stream, generator)
            if proposal is None:
                continue
            vi, vj = proposal
            if vi == vj or graph.has_edge(vi, vj):
                continue
            if acceptance is not None and not acceptance.accepts(vi, vj, generator):
                continue

            oldest = self._pop_oldest_existing_edge(graph, seed_edges)
            if oldest is None:
                break
            graph.remove_edge(*oldest)
            adjacency.remove(*oldest)
            graph.add_edge(vi, vj)
            adjacency.add(vi, vj)
            replacements_remaining -= 1

        return post_process_graph(
            graph, self._degrees, pi, rng=generator, acceptance=acceptance,
        )

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _propose_edge(self, adjacency: _SortedAdjacency,
                      stream: PresampledStream,
                      generator: np.random.Generator) -> Optional[Edge]:
        """Propose an edge: transitive with probability ρ, Chung-Lu otherwise.

        The transitive walk picks uniformly from the sorted adjacency rows
        with index arithmetic: one ``integers`` draw per hop over exactly
        the same candidate sets as the original filtered-list scan (the
        graph is simple, so Γ(vi) never contains vi; Γ(vk) \\ {vi} is
        handled by skipping vi's row position).
        """
        vi = stream.next()
        if generator.random() < self._rho:
            row = adjacency.lists[vi]
            if not row:
                return None
            vk = row[int(generator.integers(len(row)))]
            row_k = adjacency.lists[vk]
            size = len(row_k)
            position = bisect_left(row_k, vi)
            present = position < size and row_k[position] == vi
            choices = size - 1 if present else size
            if choices <= 0:
                return None
            index = int(generator.integers(choices))
            if present and index >= position:
                index += 1
            vj = row_k[index]
        else:
            vj = stream.next()
        if vj == vi:
            return None
        return (vi, vj)

    @staticmethod
    def _pop_oldest_existing_edge(graph: AttributedGraph,
                                  seed_edges: Deque[Edge]) -> Optional[Edge]:
        """Pop the oldest seed edge that still exists in the graph."""
        while seed_edges:
            u, v = seed_edges.popleft()
            if graph.has_edge(u, v):
                return (u, v)
        return None
