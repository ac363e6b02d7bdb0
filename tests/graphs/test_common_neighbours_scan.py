"""Exactness of the heavy-endpoint common-neighbour scan.

``max_common_neighbours`` seeds a lower bound ``best`` from the top hubs,
then enumerates only pairs whose degrees both exceed ``best``, in chunks,
and only from endpoints whose live count (centres with a heavy tail after
them) exceeds ``best``.  The cases below attack each step of that argument
and pin the scan to the pure-Python reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graphs.statistics as stats
from repro.graphs.attributed import AttributedGraph
from repro.testing import reference

#: Chunk budgets: the production default, tiny chunks, one partner a chunk.
CHUNK_SIZES = [stats._MAX_PAIRS_PER_CHUNK, 8, 1]

graph_specs = st.integers(min_value=2, max_value=40).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=4 * n,
        ),
    )
)


def _build(num_nodes, edges):
    graph = AttributedGraph(num_nodes, 0)
    for u, v in edges:
        if u != v:
            graph.add_edge(u, v)
    return graph


def _hub_seed(graph):
    """The scan's lower bound: the best count among the top hubs."""
    degrees = graph.degrees()
    hubs = np.argsort(-degrees, kind="stable")[:stats._SEED_HUBS].tolist()
    return max(
        graph.count_common_neighbors(u, v)
        for i, u in enumerate(hubs) for v in hubs[i + 1:]
    )


def _assert_exact(graph, chunk_size):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stats, "_MAX_PAIRS_PER_CHUNK", chunk_size)
        assert stats.max_common_neighbours(graph) == \
            reference.max_common_neighbours_reference(graph)


def _stars(num_stars, leaves, first_node=0):
    """Disjoint stars: the centres share no neighbour."""
    edges = []
    node = first_node
    for _ in range(num_stars):
        centre = node
        edges += [(centre, centre + 1 + leaf) for leaf in range(leaves)]
        node += leaves + 1
    return edges, node


def _bipartite(left, right, first_node):
    """K_{left,right} on fresh nodes; returns its edges and the next node id."""
    lefts = range(first_node, first_node + left)
    rights = range(first_node + left, first_node + left + right)
    return [(u, v) for u in lefts for v in rights], first_node + left + right


def hidden_pair_graph():
    """The maximizing pair has far lower degree than the top hubs.

    Seventeen hubs of degree 31 share one neighbour; a K_{2,12}
    elsewhere holds the maximum 12.
    """
    edges, node = _stars(17, 30)
    shared = node
    edges += [(star * 31, shared) for star in range(17)]
    more, node = _bipartite(2, 12, shared + 1)
    return _build(node, edges + more)


def tie_graph(with_winner):
    """Hub pairs reach ``best = 3``; a degree-3 pair ties it.

    With ``with_winner`` a pair of degree exactly ``best + 1`` beats it by
    one, the smallest margin the heavy threshold must admit.
    """
    edges, node = _stars(17, 30)
    # Hubs 0 and 31 share three extra nodes: cn = 3, the hub seed.
    edges += [(hub, node + k) for hub in (0, 31) for k in range(3)]
    node += 3
    tie, node = _bipartite(2, 3, node)
    edges += tie
    if with_winner:
        winner, node = _bipartite(2, 4, node)
        edges += winner
    return _build(node, edges)


def triangle_free_hubs_graph(extra):
    """Disjoint stars: the hub seed is 0 and every node is heavy."""
    edges, node = _stars(20, 10)
    if extra:
        more, node = _bipartite(2, 4, node)
        edges += more
    return _build(node, edges)


def k2n_graph(n):
    edges, node = _bipartite(2, n, 0)
    return _build(node, edges)


ADVERSARIAL = {
    "hidden-pair": (hidden_pair_graph, 12),
    "tie": (lambda: tie_graph(False), 3),
    "tie-plus-one": (lambda: tie_graph(True), 4),
    "triangle-free-hubs": (lambda: triangle_free_hubs_graph(False), 1),
    "triangle-free-hubs-k24": (lambda: triangle_free_hubs_graph(True), 4),
    "k2-1": (lambda: k2n_graph(1), 1),
    "k2-2": (lambda: k2n_graph(2), 2),
    "k2-3": (lambda: k2n_graph(3), 3),
    "k2-20": (lambda: k2n_graph(20), 20),
}


@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
@pytest.mark.parametrize("case", sorted(ADVERSARIAL))
def test_adversarial_cases(case, chunk_size):
    build, expected = ADVERSARIAL[case]
    graph = build()
    assert reference.max_common_neighbours_reference(graph) == expected
    _assert_exact(graph, chunk_size)


def _clique(size, first_node):
    nodes = range(first_node, first_node + size)
    return [(u, v) for u in nodes for v in nodes if u < v], first_node + size


def clique_graph(size):
    """K_size: every pair has size - 2 common neighbours, so the hub seed
    is already the answer and most live counts exceed it by one."""
    edges, node = _clique(size, 0)
    return _build(node, edges)


def hidden_clique_graph(size):
    """Seventeen disjoint stars seed ``best = 0``; a K_size elsewhere
    holds the maximum ``size - 2``, one below its nodes' live counts."""
    edges, node = _stars(17, 30)
    more, node = _clique(size, node)
    return _build(node, edges + more)


def hidden_bipartite_graph(left, right):
    """Stars seed ``best = 0``; in K_{left,right} the first-ranked left
    node's live count equals its ``right`` common neighbours (tight)."""
    edges, node = _stars(17, 30)
    more, node = _bipartite(left, right, node)
    return _build(node, edges + more)


def shared_hub_cliques_graph(num_cliques, size, stars):
    """``num_cliques`` copies of K_size sharing node 0: the hub's pairs
    and the in-clique pairs all tie at ``size - 2``."""
    edges, node = _stars(stars, 30, first_node=1) if stars else ([], 1)
    for _ in range(num_cliques):
        members = list(range(node, node + size - 1))
        edges += [(0, v) for v in members]
        edges += [(u, v) for u in members for v in members if u < v]
        node += size - 1
    return _build(node, edges)


LIVE_BOUND = {
    "clique-20": (lambda: clique_graph(20), 18),
    "clique-6": (lambda: clique_graph(6), 4),
    "hidden-clique-12": (lambda: hidden_clique_graph(12), 10),
    "hidden-k3-12": (lambda: hidden_bipartite_graph(3, 12), 12),
    "hidden-k4-4": (lambda: hidden_bipartite_graph(4, 4), 4),
    "hub-cliques-3x8": (lambda: shared_hub_cliques_graph(3, 8, 0), 6),
    "hub-cliques-4x10-stars": (
        lambda: shared_hub_cliques_graph(4, 10, 17), 8),
}


@pytest.mark.parametrize("chunk_size", [1, 2, 64])
@pytest.mark.parametrize("case", sorted(LIVE_BOUND))
def test_live_bound_cases(case, chunk_size):
    """Graphs where ``live(u)`` is tight against, or ties, the best count."""
    build, expected = LIVE_BOUND[case]
    graph = build()
    assert reference.max_common_neighbours_reference(graph) == expected
    _assert_exact(graph, chunk_size)


@pytest.mark.parametrize("bins_per_pair", [0, float("inf")],
                         ids=["sort", "bincount"])
@pytest.mark.parametrize("case", sorted(LIVE_BOUND))
def test_both_count_paths(monkeypatch, case, bins_per_pair):
    """Every chunk counted by a sort, then every chunk by a bincount."""
    monkeypatch.setattr(stats, "_BINS_PER_PAIR", bins_per_pair)
    build, expected = LIVE_BOUND[case]
    graph = build()
    for chunk_size in (1, 64):
        _assert_exact(graph, chunk_size)


def test_cases_hit_the_intended_bounds():
    """Each construction sets up the hub seed it claims to."""
    assert _hub_seed(hidden_pair_graph()) == 1
    assert _hub_seed(tie_graph(True)) == 3
    assert _hub_seed(triangle_free_hubs_graph(True)) == 0
    assert _hub_seed(clique_graph(20)) == 18
    assert _hub_seed(hidden_clique_graph(12)) == 0
    assert _hub_seed(hidden_bipartite_graph(3, 12)) == 0


@settings(max_examples=150, deadline=None)
@given(graph_specs)
def test_matches_reference(spec):
    graph = _build(*spec)
    for chunk_size in CHUNK_SIZES[:2]:
        _assert_exact(graph, chunk_size)


@settings(max_examples=40, deadline=None)
@given(graph_specs, st.sampled_from([0, float("inf")]))
def test_both_count_paths_match_reference(spec, bins_per_pair):
    """Random graphs with every chunk counted by one of the two paths."""
    graph = _build(*spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stats, "_BINS_PER_PAIR", bins_per_pair)
        _assert_exact(graph, 8)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=20, max_value=120),
    st.floats(min_value=0.8, max_value=3.0),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_matches_reference_on_skewed_graphs(num_nodes, tail, seed):
    """Heavy-tailed graphs with more than ``_SEED_HUBS`` hubs."""
    rng = np.random.default_rng(seed)
    weights = rng.pareto(tail, size=num_nodes) + 1.0
    ends = rng.choice(num_nodes, size=(4 * num_nodes, 2),
                      p=weights / weights.sum())
    graph = _build(num_nodes, ends.tolist())
    for chunk_size in CHUNK_SIZES[:2]:
        _assert_exact(graph, chunk_size)


def test_empty_and_edgeless_graphs():
    assert stats.max_common_neighbours(AttributedGraph(0, 0)) == 0
    assert stats.max_common_neighbours(AttributedGraph(5, 0)) == 0
    assert stats.max_common_neighbours(_build(2, [(0, 1)])) == 0
