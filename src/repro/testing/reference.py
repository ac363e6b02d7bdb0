"""Scalar reference engines: the oracles the equivalence suites compare against.

Each production phase has exactly one engine.  The per-proposal and
per-attempt loops it replaced live on here, unchanged, so tests can pin the
production engines against them:

* :class:`RejectionChungLuModel` — Chung-Lu whose acceptance filter flips
  one coin per π×π proposal, as the production sampler did before it drew
  the accepted pairs from their exact law; unfiltered generations are
  bit-identical to :class:`~repro.models.chung_lu.ChungLuModel`, filtered
  ones agree in distribution, not per seed;
* :class:`SequentialTriCycLeModel` — TriCycLe whose exact rewiring runs
  the per-proposal reference loop on the live graph, with the sorted-row
  neighbour picks :func:`pick` and :func:`pick_excluding`; its outputs are
  bit-identical to :class:`~repro.models.tricycle.TriCycLeModel`;
* :func:`post_process_graph_scalar` — Algorithm 2 through the per-attempt
  repair loop; it consumes the RNG differently from the production engine,
  so the two agree in distribution, not per seed;
* :func:`evaluate_synthetic_graph_reference` — the from-scratch evaluation
  row, bit-identical to the memoized
  :func:`~repro.metrics.evaluation.evaluate_synthetic_graph`; it rescans
  on every call and never reads a graph's statistics memo;
* :func:`triangle_count_reference`, :func:`triangles_per_node_reference`,
  :func:`local_clustering_coefficients_reference`,
  :func:`max_common_neighbours_reference` and
  :func:`degree_ccdf_reference` — the pure-Python structural kernels,
  equal to the vectorized ones in :mod:`repro.graphs.statistics`;
* :func:`isotonic_regression_reference` — the PAVA on scalar-indexed NumPy
  arrays, bit-identical to
  :func:`~repro.privacy.constrained_inference.isotonic_regression`.

No production module imports this one (a guard test walks ``src/repro``),
and :mod:`repro.testing` does not import it either.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from itertools import islice
from typing import Deque, List, Optional, Set, Tuple

import numpy as np

from repro.graphs import statistics as graph_statistics
from repro.graphs.attributed import AttributedGraph
from repro.graphs.components import connected_components
from repro.metrics.distributions import (
    hellinger_distance,
    mean_relative_error,
    relative_error,
)
from repro.metrics.evaluation import EvaluationReport
from repro.metrics.graph_metrics import degree_hellinger, degree_ks
from repro.models.base import EdgeAcceptance
from repro.models.chung_lu import ChungLuModel, _Proposals
from repro.models.postprocess import _STALL_LIMIT, _warn_infeasible
from repro.models.rewiring import Edge, _SortedAdjacency
from repro.models.tricycle import TriCycLeModel
from repro.params.correlations import connection_probabilities
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.sampling import WeightedSampler


# ----------------------------------------------------------------------
# Chung-Lu acceptance: one coin per proposal
# ----------------------------------------------------------------------
class RejectionChungLuModel(ChungLuModel):
    """Chung-Lu whose acceptance filter is one coin per π×π proposal.

    Everything but the pair helper is inherited.  Its rows are proposals
    (``rate`` 1), so a round spends as many proposals as it wants rows and
    keeps those whose coin lands under ``A(c_u, c_v)``: the rejection
    sampler the accepted-pair join replaced, stream for stream.
    """

    def _pair_source(self, acceptance: Optional[EdgeAcceptance]
                     ) -> _Proposals:
        if acceptance is None:
            return super()._pair_source(acceptance)
        return _CoinProposals(self.pi_distribution(), acceptance)


class _CoinProposals(_Proposals):
    """π×π proposals filtered by one acceptance coin each."""

    def __init__(self, pi: np.ndarray, acceptance: EdgeAcceptance) -> None:
        super().__init__(pi)
        self._acceptance = acceptance

    def draw(self, rows: int, generator: np.random.Generator
             ) -> Tuple[np.ndarray, np.ndarray]:
        us, vs = super().draw(rows, generator)
        coins = generator.random(rows)
        keep = coins <= self._acceptance.pair_probabilities(us, vs)
        return us[keep], vs[keep]


# ----------------------------------------------------------------------
# Exact rewiring: the per-proposal loop
# ----------------------------------------------------------------------
class SequentialTriCycLeModel(TriCycLeModel):
    """TriCycLe whose exact rewiring runs the per-proposal reference loop.

    Everything but the rewiring phase is inherited, so ``generate`` outputs
    must equal :class:`~repro.models.tricycle.TriCycLeModel`'s bit for bit.
    """

    def _rewire_exact(self, graph: AttributedGraph,
                      adjacency: _SortedAdjacency,
                      edge_age: Deque[Edge], tau: int, target: int,
                      max_iterations: int, sampler: WeightedSampler,
                      generator: np.random.Generator,
                      acceptance: Optional[EdgeAcceptance]) -> None:
        _rewire_sequential(graph, adjacency, edge_age, tau, target,
                           max_iterations, sampler, generator, acceptance)


def _rewire_sequential(graph: AttributedGraph,
                       adjacency: _SortedAdjacency,
                       edge_age: Deque[Edge], tau: int, target: int,
                       max_iterations: int, sampler: WeightedSampler,
                       generator: np.random.Generator,
                       acceptance: Optional[EdgeAcceptance]) -> None:
    """Per-proposal reference loop.

    π proposals and the uniforms driving the two neighbour hops are
    drawn in blocks (a scalar searchsorted plus two scalar RNG calls per
    iteration used to dominate the proposal cost); evaluation is fully
    scalar against the live graph.  The production loop consumes the
    identical RNG stream.
    """
    block_size = max(256, min(65536, max_iterations))
    vi_block = sampler.sample_many(block_size, generator)
    unit_block = generator.random((block_size, 2))
    cursor = 0
    iterations = 0
    # Scalar membership probes and common-neighbour counts run on the
    # O(1)-update set view.
    graph.materialize_neighbor_sets()

    while tau < target and iterations < max_iterations and graph.num_edges > 0:
        iterations += 1
        if cursor >= block_size:
            vi_block = sampler.sample_many(block_size, generator)
            unit_block = generator.random((block_size, 2))
            cursor = 0
        vi = int(vi_block[cursor])
        hop_one, hop_two = unit_block[cursor]
        cursor += 1

        # Friend-of-a-friend proposal (Algorithm 1, lines 5-9): walk to a
        # random neighbour vk, then to a random neighbour of vk other
        # than vi.
        vk = pick(adjacency, vi, hop_one)
        if vk is None:
            continue
        vj = pick_excluding(adjacency, vk, vi, hop_two)
        if vj is None or vj == vi:
            continue
        if graph.has_edge(vi, vj):
            continue
        if acceptance is not None and not acceptance.accepts(vi, vj, generator):
            continue

        oldest = _pop_oldest_existing_edge(graph, edge_age)
        if oldest is None:
            break
        vq, vr = oldest
        cn_old = graph.count_common_neighbors(vq, vr)
        graph.remove_edge(vq, vr)
        adjacency.remove(vq, vr)
        cn_new = graph.count_common_neighbors(vi, vj)
        if cn_new >= cn_old:
            graph.add_edge(vi, vj)
            adjacency.add(vi, vj)
            edge_age.append((min(vi, vj), max(vi, vj)))
            tau += cn_new - cn_old
        else:
            # Undo the removal; the retired edge becomes the youngest so
            # the loop cannot get stuck re-proposing the same swap.
            graph.add_edge(vq, vr)
            adjacency.add(vq, vr)
            edge_age.append((vq, vr))


def pick(adjacency: _SortedAdjacency, v: int, unit: float) -> Optional[int]:
    """Uniform neighbour of ``v`` driven by a pre-drawn unit uniform."""
    row = adjacency.lists[v]
    if not row:
        return None
    return row[min(int(unit * len(row)), len(row) - 1)]


def pick_excluding(adjacency: _SortedAdjacency, v: int, excluded: int,
                   unit: float) -> Optional[int]:
    """Uniform element of ``Γ(v) \\ {excluded}`` in O(log d).

    Skips the excluded element by index arithmetic instead of rejection,
    so the draw stays exactly uniform over the remaining neighbours.
    """
    row = adjacency.lists[v]
    size = len(row)
    position = bisect_left(row, excluded)
    if position >= size or row[position] != excluded:
        if size == 0:
            return None
        return row[min(int(unit * size), size - 1)]
    if size == 1:
        return None
    index = min(int(unit * (size - 1)), size - 2)
    if index >= position:
        index += 1
    return row[index]


def _pop_oldest_existing_edge(graph: AttributedGraph,
                              edge_age: Deque[Edge]) -> Optional[Edge]:
    """Pop the oldest edge that still exists in the graph."""
    while edge_age:
        u, v = edge_age.popleft()
        if graph.has_edge(u, v):
            return (u, v)
    return None


# ----------------------------------------------------------------------
# Orphan repair: the per-attempt loop
# ----------------------------------------------------------------------
def post_process_graph_scalar(graph: AttributedGraph,
                              desired_degrees: np.ndarray, pi: np.ndarray,
                              rng: RngLike = None,
                              acceptance: Optional[EdgeAcceptance] = None,
                              max_rounds: Optional[int] = None
                              ) -> AttributedGraph:
    """Algorithm 2 through the scalar loop.

    Same contract as :func:`~repro.models.postprocess.post_process_graph`,
    except that the input lengths are not validated.
    """
    generator = ensure_rng(rng)
    desired = np.asarray(desired_degrees, dtype=np.int64)
    result = graph.copy()
    if max_rounds is None:
        max_rounds = 4 * max(1, graph.num_nodes)
    _post_process_scalar(
        result, desired, np.asarray(pi, dtype=float), generator, acceptance,
        int(desired.sum() // 2), max_rounds,
    )
    return result


def _post_process_scalar(result: AttributedGraph, desired: np.ndarray,
                         pi: np.ndarray, generator: np.random.Generator,
                         acceptance: Optional[EdgeAcceptance],
                         target_edges: int, max_rounds: int) -> None:
    """The original per-attempt repair loop, mutating ``result`` in place."""
    sampler = WeightedSampler(pi) if pi.sum() > 0 else None
    # The repair loop is scalar-probe-heavy: work on the O(1)-update set
    # view directly instead of paying the accessor per membership test.
    result.materialize_neighbor_sets()
    adj = result.adjacency_sets()

    main_component: Set[int] = set()
    worklist: List[int] = []
    cursor = 0
    dirty = True  # the component decomposition must be (re)computed
    rounds = 0
    best_orphans: Optional[int] = None
    stalls = 0
    stall_limit = _STALL_LIMIT
    warned = False
    current_degrees = result.degrees()
    degree_bound = max(1, int(current_degrees.max())) if current_degrees.size else 1
    while rounds < max_rounds:
        rounds += 1
        if dirty or cursor >= len(worklist):
            components = connected_components(result)
            if len(components) <= 1:
                break
            main_component = components[0]
            if not warned and target_edges < result.num_nodes - 1:
                _warn_infeasible(target_edges, result.num_nodes)
                warned = True
                stall_limit = 1
            # Process orphans by ascending id (deterministic for a fixed
            # seed), exactly like the former smallest-id-per-scan rule.
            worklist = sorted(
                node for component in components[1:] for node in component
            )
            if best_orphans is not None and len(worklist) >= best_orphans:
                stalls += 1
                if stalls >= stall_limit:
                    break
            else:
                best_orphans = len(worklist)
                stalls = 0
            cursor = 0
            dirty = False

        orphan = worklist[cursor]
        cursor += 1

        # Detach any stray edges (they can only lead to other orphans).
        for neighbour in list(adj[orphan]):
            result.remove_edge(orphan, neighbour)

        wanted = max(1, int(desired[orphan]))
        attached = 0
        attempts = 0
        max_attempts = 50 * wanted + 50
        while attached < wanted and attempts < max_attempts:
            attempts += 1
            if sampler is not None:
                partner = sampler.sample(generator)
            else:
                partner = int(generator.integers(result.num_nodes))
            if partner == orphan or partner in adj[orphan]:
                continue
            if partner not in main_component:
                continue
            # Prefer partners whose desired degree is not yet met; fall back
            # to any main-component partner once attempts pile up, so the
            # repair always terminates.
            if len(adj[partner]) >= desired[partner] and attempts < max_attempts // 2:
                continue
            if acceptance is not None and not acceptance.accepts(
                orphan, partner, generator
            ):
                continue
            result.add_edge(orphan, partner)
            attached += 1
            degree_bound = max(
                degree_bound, len(adj[orphan]), len(adj[partner])
            )
            if result.num_edges > target_edges:
                if not _remove_random_safe_edge(
                    result, orphan, generator, degree_bound=degree_bound
                ):
                    dirty = True
        if attached:
            main_component.add(orphan)


def _locally_connected(graph: AttributedGraph, source: int, target: int,
                       edge_budget: int = 4096) -> bool:
    """Budgeted BFS: is ``target`` reachable from ``source``?

    Traverses at most ``edge_budget`` edges.  In the giant component of a
    social graph the alternate path between the endpoints of a removed edge
    is short, so the search almost always succeeds within a handful of
    expansions; an exhausted budget returns ``False`` (treat as "possibly
    disconnected") rather than paying for a full O(n + m) scan.  Budgeting
    edge visits instead of node expansions keeps the worst case bounded on
    hub-heavy graphs, where a few hundred hub expansions can mean hundreds
    of thousands of neighbour probes.

    This is the scalar reference; the production engine runs the same
    budgeted search through
    :class:`repro.graphs.components.BudgetedReachability`.
    """
    adj = graph.adjacency_sets()
    seen = {source}
    queue = deque([source])
    visited_edges = 0
    while queue and visited_edges < edge_budget:
        node = queue.popleft()
        visited_edges += len(adj[node])
        for neighbour in adj[node]:
            if neighbour == target:
                return True
            if neighbour not in seen:
                seen.add(neighbour)
                queue.append(neighbour)
    return False


def _remove_random_safe_edge(graph: AttributedGraph, protected_node: int,
                             generator: np.random.Generator,
                             num_candidates: int = 8,
                             degree_bound: Optional[int] = None) -> bool:
    """Remove one random edge not incident to ``protected_node``.

    Returns ``True`` when the removal provably kept the graph connected and
    ``False`` when an arbitrary edge was removed (the caller must then
    re-examine connectivity).

    Protecting the freshly repaired node keeps the repair from undoing
    itself; if every sampled edge touches the protected node (tiny graphs),
    an arbitrary edge is removed instead.

    Algorithm 2 deletes an arbitrary random edge.  Candidates are drawn
    uniformly over edges by rejection sampling — pick a node, accept it with
    probability ``degree / degree_bound``, then pick a uniform neighbour —
    which is O(1) per draw instead of materialising the O(m) edge list or an
    O(n) degree table.  Among the candidates this implementation prefers, in
    order:

    1. an edge lying on a triangle (guaranteed not to be a bridge, so the
       removal cannot disconnect the graph) with the fewest common
       neighbours (so the fewest triangles are destroyed);
    2. otherwise, a candidate whose endpoints stay connected after the
       removal (verified with a budgeted local BFS);
    3. otherwise, an arbitrary candidate (the caller's repair loop will fix
       any resulting orphan on a later round).
    """
    if graph.num_edges == 0:
        return True
    n = graph.num_nodes
    adj = graph.adjacency_sets()
    degrees = graph.degrees_view()
    if degree_bound is None or degree_bound < 1:
        degree_bound = max(1, int(degrees.max()))

    sampled = []
    fallback = None
    rounds = 0
    max_rounds = 8
    block = 16 * num_candidates
    while len(sampled) < num_candidates and rounds < max_rounds:
        rounds += 1
        # Scalar RNG calls dominate the rejection loop, so draw the node
        # picks and acceptance coins for a whole block at once, and run the
        # accept test (coin < degree) vectorized — on a skewed degree
        # sequence the acceptance rate is ``d̄ / d_max``, so scanning the
        # rejected draws in Python would dominate the whole repair step.
        nodes = generator.integers(0, n, size=block)
        coins = generator.random(block) * degree_bound
        for position in np.flatnonzero(coins < degrees[nodes]).tolist():
            u = int(nodes[position])
            coin = float(coins[position])
            neighbours = adj[u]
            # Conditioned on acceptance the coin is uniform on [0, du), so
            # its integer part doubles as a uniform neighbour index (walked
            # with islice — same iteration order as tuple(...)[index], but
            # without materialising a hub-sized tuple per draw).
            v = next(islice(neighbours, int(coin), None))
            edge = (u, v) if u < v else (v, u)
            if protected_node in edge:
                fallback = fallback or edge
                continue
            sampled.append(edge)
            if len(sampled) >= num_candidates:
                break
    if not sampled:
        if fallback is None:
            # Rejection sampling found nothing (extremely skewed degrees
            # make per-draw acceptance tiny).  Fall back to one exact
            # degree-weighted draw so an edge is always removed — returning
            # without removing would leave the graph above its target edge
            # count.
            cumulative = np.cumsum(graph.degrees())
            r = int(generator.integers(int(cumulative[-1])))
            u = int(np.searchsorted(cumulative, r, side="right"))
            offset = r - (int(cumulative[u - 1]) if u else 0)
            v = tuple(adj[u])[offset]
            fallback = (u, v) if u < v else (v, u)
        sampled = [fallback]

    on_triangle = [
        (count, edge)
        for count, edge in (
            (graph.count_common_neighbors(u, v), (u, v)) for u, v in sampled
        )
        if count > 0
    ]
    if on_triangle:
        _count, edge = min(on_triangle, key=lambda item: item[0])
        graph.remove_edge(*edge)
        return True

    for u, v in sampled:
        graph.remove_edge(u, v)
        # An endpoint left isolated is certainly disconnected — same verdict
        # as the budgeted BFS, without the scan.  Otherwise search from the
        # lower-degree side: a small detached fragment empties the queue (a
        # cheap, definitive "no") where the giant side would burn the whole
        # budget.
        if len(adj[u]) and len(adj[v]):
            source, sink = (u, v) if len(adj[u]) <= len(adj[v]) else (v, u)
            if _locally_connected(graph, source, sink):
                return True
        graph.add_edge(u, v)
    graph.remove_edge(*sampled[0])
    return False


# ----------------------------------------------------------------------
# Evaluation: the from-scratch row
# ----------------------------------------------------------------------
def evaluate_synthetic_graph_reference(original: AttributedGraph,
                                       synthetic: AttributedGraph
                                       ) -> EvaluationReport:
    """The Table 2-5 metric row recomputed from scratch.

    Every call rescans both graphs, whatever their statistics memos hold:
    per graph, a totals-only triangle scan for ``n_∆``, a per-node scan for
    ``C̄`` and another totals-only scan for ``C``, as the public kernels
    run on a graph whose memo is off.
    """
    original_correlations = connection_probabilities(original)
    synthetic_correlations = connection_probabilities(synthetic)

    return EvaluationReport(
        theta_f_mre=mean_relative_error(original_correlations, synthetic_correlations),
        theta_f_hellinger=hellinger_distance(
            original_correlations, synthetic_correlations
        ),
        degree_ks=degree_ks(original, synthetic),
        degree_hellinger=degree_hellinger(original, synthetic),
        triangle_mre=relative_error(
            _scanned_triangle_count(original),
            _scanned_triangle_count(synthetic),
        ),
        average_clustering_mre=relative_error(
            _scanned_average_clustering(original),
            _scanned_average_clustering(synthetic),
        ),
        global_clustering_mre=relative_error(
            _scanned_global_clustering(original),
            _scanned_global_clustering(synthetic),
        ),
        edge_count_mre=relative_error(original.num_edges, synthetic.num_edges),
    )


def _scanned_triangle_count(graph: AttributedGraph) -> int:
    """``triangle_count`` as the totals-only scan, memo or not."""
    return graph_statistics._triangle_scan(graph, per_node=False)[0]


def _scanned_average_clustering(graph: AttributedGraph) -> float:
    """``average_local_clustering`` from a per-node scan, memo or not."""
    if graph.num_nodes == 0:
        return 0.0
    per_node = graph_statistics._triangle_scan(graph, per_node=True)[1]
    coefficients = graph_statistics._clustering_from_triangles(graph, per_node)
    return float(coefficients.mean())


def _scanned_global_clustering(graph: AttributedGraph) -> float:
    """``global_clustering_coefficient`` from a totals-only scan."""
    wedges = graph_statistics.wedge_count(graph)
    if wedges == 0:
        return 0.0
    return 3.0 * _scanned_triangle_count(graph) / wedges


# ----------------------------------------------------------------------
# Structural statistics: the pre-CSR pure-Python kernels
# ----------------------------------------------------------------------
# The vectorized kernels of repro.graphs.statistics must agree with these
# exactly on every input.  They walk the adjacency-set view.

def triangle_count_reference(graph: AttributedGraph) -> int:
    """Pure-Python neighbour-intersection triangle count (reference)."""
    total = 0
    for u, v in graph.edges():
        nu = graph.neighbor_set(u)
        nv = graph.neighbor_set(v)
        if len(nu) > len(nv):
            nu, nv = nv, nu
        for w in nu:
            if w > v and w in nv:
                total += 1
    return total


def triangles_per_node_reference(graph: AttributedGraph) -> np.ndarray:
    """Pure-Python per-node triangle counts (reference)."""
    counts = np.zeros(graph.num_nodes, dtype=np.int64)
    for u, v in graph.edges():
        nu = graph.neighbor_set(u)
        nv = graph.neighbor_set(v)
        if len(nu) > len(nv):
            nu, nv = nv, nu
        for w in nu:
            if w > v and w in nv:
                counts[u] += 1
                counts[v] += 1
                counts[w] += 1
    return counts


def local_clustering_coefficients_reference(graph: AttributedGraph) -> np.ndarray:
    """Pure-Python local clustering coefficients (reference)."""
    triangles = triangles_per_node_reference(graph)
    degrees = graph.degrees().astype(np.float64)
    possible = degrees * (degrees - 1) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        coefficients = np.where(possible > 0, triangles / possible, 0.0)
    return coefficients


def max_common_neighbours_reference(graph: AttributedGraph) -> int:
    """Pure-Python wedge-pair common-neighbour maximum (reference)."""
    best = 0
    for centre in graph.nodes():
        neighbours = sorted(graph.neighbor_set(centre))
        if len(neighbours) < 2:
            continue
        # Pairs of neighbours of ``centre`` share at least ``centre``; count
        # exact common-neighbour sizes for pairs seen through this centre.
        for i, u in enumerate(neighbours):
            nu = graph.neighbor_set(u)
            for v in neighbours[i + 1:]:
                common = len(nu & graph.neighbor_set(v))
                if common > best:
                    best = common
    return best


def degree_ccdf_reference(graph: AttributedGraph) -> List[tuple]:
    """Pure-Python O(unique · n) degree CCDF (reference)."""
    degrees = np.sort(graph.degrees())
    n = degrees.size
    if n == 0:
        return []
    unique = np.unique(degrees)
    points = []
    for value in unique:
        fraction = float(np.count_nonzero(degrees > value)) / n
        points.append((int(value), fraction))
    return points


# ----------------------------------------------------------------------
# Constrained inference: the numpy-array PAVA
# ----------------------------------------------------------------------
def isotonic_regression_reference(values: np.ndarray) -> np.ndarray:
    """PAVA over scalar-indexed NumPy block arrays (reference).

    :func:`repro.privacy.constrained_inference.isotonic_regression` performs
    the same float operations in the same order on Python lists, so the two
    are bit-identical.
    """
    arr = np.asarray(values, dtype=float)
    n = arr.size
    if n == 0:
        return arr.copy()

    # Each block is (total, count); blocks are merged while out of order.
    block_total = np.empty(n)
    block_count = np.empty(n, dtype=np.int64)
    block_start = np.empty(n, dtype=np.int64)
    num_blocks = 0

    for i, value in enumerate(arr):
        block_total[num_blocks] = value
        block_count[num_blocks] = 1
        block_start[num_blocks] = i
        num_blocks += 1
        # Merge while the previous block's mean exceeds the new block's mean.
        while (
            num_blocks > 1
            and block_total[num_blocks - 2] * block_count[num_blocks - 1]
            > block_total[num_blocks - 1] * block_count[num_blocks - 2]
        ):
            block_total[num_blocks - 2] += block_total[num_blocks - 1]
            block_count[num_blocks - 2] += block_count[num_blocks - 1]
            num_blocks -= 1

    result = np.empty(n)
    for b in range(num_blocks):
        start = block_start[b]
        end = block_start[b + 1] if b + 1 < num_blocks else n
        result[start:end] = block_total[b] / block_count[b]
    return result
