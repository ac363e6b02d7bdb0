"""Synthetic attributed social graphs mimicking the paper's datasets.

Each generator produces a connected, undirected, simple graph with two binary
node attributes whose marginals and edge-correlations (homophily) match the
character of the corresponding real dataset, and whose degree distribution,
triangle count and clustering match the published summary statistics of
Table 6 at full scale.  The ``scale`` parameter shrinks the graph while
preserving average degree and clustering so large datasets remain usable on a
laptop; the DESIGN.md substitution table discusses why this preserves the
paper's qualitative findings.

The construction pipeline is:

1. sample a heavy-tailed (power-law with cutoff) degree sequence with the
   target average and maximum degree;
2. generate structure with the library's own (non-private) TriCycLe model so
   the triangle density matches the target;
3. keep the largest connected component (the paper does the same);
4. assign two binary attributes with the target marginals and induce
   homophily by hill-climbing attribute-vector swaps (which preserves the
   marginals exactly).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.attributes.encoding import AttributeEncoder
from repro.graphs.attributed import AttributedGraph
from repro.graphs.components import largest_connected_component
from repro.models.tricycle import TriCycLeModel
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_fraction, check_positive_int


def powerlaw_degree_sequence(num_nodes: int, average_degree: float,
                             max_degree: int, exponent: float = 2.3,
                             rng: RngLike = None) -> np.ndarray:
    """Sample a power-law degree sequence with a target mean and maximum.

    Degrees are drawn from a discrete Pareto-like distribution with the given
    ``exponent``, truncated at ``max_degree``, then rescaled (by resampling
    the tail) so that the empirical mean is close to ``average_degree``.  The
    sum is forced to be even so the sequence is graphical for Chung-Lu style
    generators.
    """
    num_nodes = check_positive_int(num_nodes, "num_nodes")
    if average_degree <= 0:
        raise ValueError("average_degree must be positive")
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    generator = ensure_rng(rng)

    # Draw from a zeta-like distribution via inverse transform on a grid.
    support = np.arange(1, max_degree + 1, dtype=float)
    weights = support ** (-exponent)
    probabilities = weights / weights.sum()
    degrees = generator.choice(
        np.arange(1, max_degree + 1), size=num_nodes, p=probabilities
    ).astype(np.int64)

    # Moment matching: spread the remaining degree mass over the nodes in
    # proportion to their current degree (which keeps the distribution
    # heavy-tailed), or remove surplus mass from high-degree nodes.  A few
    # multinomial rounds converge even for large deficits.
    target_total = int(round(average_degree * num_nodes))
    target_total = max(target_total, num_nodes)  # keep the sequence graphical-ish
    for _ in range(50):
        total = int(degrees.sum())
        deficit = target_total - total
        if abs(deficit) <= max(2, num_nodes // 500):
            break
        if deficit > 0:
            headroom = (max_degree - degrees).astype(float)
            if headroom.sum() <= 0:
                break
            allocation_weights = degrees * (degrees < max_degree)
            if allocation_weights.sum() <= 0:
                allocation_weights = headroom
            allocation = generator.multinomial(
                deficit, allocation_weights / allocation_weights.sum()
            )
            degrees = np.minimum(degrees + allocation, max_degree)
        else:
            removable = (degrees - 1).clip(min=0).astype(float)
            if removable.sum() <= 0:
                break
            removal = generator.multinomial(
                -deficit, removable / removable.sum()
            )
            degrees = np.maximum(degrees - removal, 1)

    if degrees.sum() % 2 == 1:
        # Make the sum even by nudging one node.
        index = int(np.argmax(degrees < max_degree))
        degrees[index] += 1 if degrees[index] < max_degree else -1
    return degrees


def _induce_homophily(graph: AttributedGraph, strength: float,
                      rng: np.random.Generator,
                      num_passes: int = 4) -> None:
    """Increase attribute assortativity by swapping attribute vectors.

    Random pairs of nodes exchange their whole attribute vectors when the
    swap increases the number of edges whose endpoints agree on attributes;
    each pass makes ``4 · strength · n`` swap proposals.  Swapping preserves
    the attribute marginals exactly.
    """
    strength = check_fraction(strength, "strength")
    n = graph.num_nodes
    if n < 2 or graph.num_attributes == 0 or strength == 0.0:
        return
    attributes = graph.attributes
    proposals_per_pass = int(strength * 4 * n)

    # Only attributes move, so the structure is read once.  hist[x][c]
    # counts x's neighbours whose attribute code is c, which makes a
    # proposal's gain four lookups; only an accepted swap walks the two
    # rows, to move its endpoints' codes in their neighbours' histograms.
    encoder = AttributeEncoder(graph.num_attributes)
    code_array = encoder.encode_matrix(attributes)
    q = encoder.num_configurations
    indptr, indices = graph.csr()
    owners = np.repeat(np.arange(n), np.diff(indptr))
    hist = np.bincount(
        owners * q + code_array[indices], minlength=n * q
    ).reshape(n, q).tolist()
    codes = code_array.tolist()
    flat = indices.tolist()
    bounds = indptr.tolist()
    holder = list(range(n))

    for _ in range(num_passes):
        proposals = rng.integers(n, size=(proposals_per_pass, 2))
        for u, v in proposals.tolist():
            code_u = codes[u]
            code_v = codes[v]
            if code_u == code_v:
                continue
            hist_u = hist[u]
            hist_v = hist[v]
            if (hist_u[code_v] - hist_u[code_u]
                    + hist_v[code_u] - hist_v[code_v]) > 0:
                codes[u], codes[v] = code_v, code_u
                holder[u], holder[v] = holder[v], holder[u]
                for w in flat[bounds[u]:bounds[u + 1]]:
                    hist[w][code_u] -= 1
                    hist[w][code_v] += 1
                for w in flat[bounds[v]:bounds[v + 1]]:
                    hist[w][code_v] -= 1
                    hist[w][code_u] += 1
    attributes[:] = attributes[holder]


def attributed_social_graph(num_nodes: int, average_degree: float,
                            max_degree: int, num_triangles: int,
                            attribute_marginals: Sequence[float] = (0.4, 0.3),
                            homophily: float = 0.6,
                            exponent: float = 2.3,
                            rng: RngLike = None) -> AttributedGraph:
    """Generate a synthetic attributed social graph with the requested statistics.

    Only the largest connected component is returned, as in the paper's
    preprocessing.

    Parameters
    ----------
    num_nodes, average_degree, max_degree, num_triangles:
        Structural targets (see :func:`powerlaw_degree_sequence` and
        :class:`~repro.models.tricycle.TriCycLeModel`).
    attribute_marginals:
        Marginal probability of each binary attribute being 1.
    homophily:
        Strength of attribute–edge correlation in ``[0, 1]``; 0 gives
        independent attributes, larger values give stronger homophily.
    exponent:
        Power-law exponent of the degree distribution.
    rng:
        Seed or generator.
    """
    generator = ensure_rng(rng)
    degrees = powerlaw_degree_sequence(
        num_nodes, average_degree, max_degree, exponent=exponent, rng=generator
    )
    model = TriCycLeModel(degrees, num_triangles=num_triangles)
    structure = model.generate(rng=generator)

    w = len(list(attribute_marginals))
    graph = AttributedGraph.from_graph_structure(structure, w)
    if w:
        attributes = np.column_stack([
            (generator.random(graph.num_nodes) < check_fraction(p, "marginal"))
            .astype(np.uint8)
            for p in attribute_marginals
        ])
        graph.set_all_attributes(attributes)
        _induce_homophily(graph, homophily, generator)
    return largest_connected_component(graph)


def _scaled(value: float, scale: float, minimum: int = 1) -> int:
    """Scale an integer statistic, keeping it at least ``minimum``."""
    return max(minimum, int(round(value * scale)))


def lastfm_like(scale: float = 1.0, seed: RngLike = None) -> AttributedGraph:
    """A Last.fm-like graph: 1 843 nodes, 12 668 edges, C̄ ≈ 0.18, strong homophily.

    The two attributes mirror the paper's "listened to artist X" indicators
    (marginals around 0.35 and 0.25).
    """
    return attributed_social_graph(
        num_nodes=_scaled(1843, scale, minimum=60),
        average_degree=2 * 6.9,
        max_degree=max(10, _scaled(119, scale ** 0.5)),
        num_triangles=_scaled(19651, scale),
        attribute_marginals=(0.35, 0.25),
        homophily=0.7,
        exponent=2.1,
        rng=seed,
    )


def petster_like(scale: float = 1.0, seed: RngLike = None) -> AttributedGraph:
    """A Petster-like graph: 1 788 nodes, 12 476 edges, C̄ ≈ 0.14, milder homophily.

    The attributes mirror the hamster ``sex`` and ``is-living`` flags
    (marginals near 0.5 and 0.85).
    """
    return attributed_social_graph(
        num_nodes=_scaled(1788, scale, minimum=60),
        average_degree=2 * 7.0,
        max_degree=max(10, _scaled(272, scale ** 0.5)),
        num_triangles=_scaled(16741, scale),
        attribute_marginals=(0.5, 0.85),
        homophily=0.4,
        exponent=2.2,
        rng=seed,
    )


def epinions_like(scale: float = 1.0, seed: RngLike = None) -> AttributedGraph:
    """An Epinions-like graph: 26 427 nodes at full scale, sparse (d_avg ≈ 3.9).

    The attributes mirror "rated product X" indicators with small marginals,
    which is what makes the Θ_F distribution skewed on this dataset.
    """
    return attributed_social_graph(
        num_nodes=_scaled(26427, scale, minimum=100),
        average_degree=2 * 3.9,
        max_degree=max(12, _scaled(625, scale ** 0.5)),
        num_triangles=_scaled(231645, scale),
        attribute_marginals=(0.15, 0.1),
        homophily=0.6,
        exponent=2.0,
        rng=seed,
    )


def pokec_like(scale: float = 0.05, seed: RngLike = None) -> AttributedGraph:
    """A Pokec-like graph; defaults to a 5 % scale (≈ 30 000 nodes).

    The attributes mirror ``sex`` and ``age <= 30`` (marginals near 0.5 and
    0.6).  ``scale`` multiplies the full Pokec statistics — 592 627 nodes,
    ≈ 3 725 424 edges (d_avg ≈ 6.3 · 2 = 12.6 halved back to ≈ 6.3 after
    symmetrisation), d_max scaling with ``sqrt(scale)`` from 1 274, and
    2 492 216 triangles — so ``scale=s`` targets ``n ≈ s · 592 627`` nodes
    and ``m ≈ s · 3 725 424`` edges before the largest-component cut.

    Expected peak working set per tier (pure-numpy generation on one core,
    measured by ``scripts/bench_perf.py --generation-tiers``):

    ========= ========== ============ ==================
    scale     nodes n    edges m      approx. peak RSS
    ========= ========== ============ ==================
    0.05      ≈ 29 600   ≈ 186 000    ≈ 200 MiB
    0.1       ≈ 59 300   ≈ 372 000    ≈ 380 MiB
    0.2       ≈ 118 500  ≈ 745 000    ≈ 650 MiB
    0.5       ≈ 296 300  ≈ 1 860 000  ≈ 1.6 GiB
    1.0       592 627    ≈ 3 725 000  ≈ 2 GiB
    ========= ========== ============ ==================

    The dominant cost is the rewiring phase's Python adjacency sets; set
    ``REPRO_MEMORY_BUDGET_MB`` to make generation shard its sampling passes
    and fail fast (``over_memory``) instead of thrashing when a tier cannot
    fit the declared budget.
    """
    return attributed_social_graph(
        num_nodes=_scaled(592627, scale, minimum=200),
        average_degree=2 * 6.3,
        max_degree=max(15, _scaled(1274, scale ** 0.5)),
        num_triangles=_scaled(2492216, scale),
        attribute_marginals=(0.5, 0.6),
        homophily=0.5,
        exponent=2.3,
        rng=seed,
    )
