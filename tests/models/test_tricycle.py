"""Unit tests for the TriCycLe structural model (Algorithm 1)."""

from collections import deque
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.models.tricycle as tricycle
from repro.attributes.encoding import EdgeConfigurationEncoder
from repro.datasets.synthetic import powerlaw_degree_sequence
from repro.graphs.attributed import AttributedGraph
from repro.graphs.components import is_connected
from repro.graphs.statistics import (
    degree_sequence,
    triangle_count,
    triangles_per_node,
    wedge_count,
)
from repro.models.base import EdgeAcceptance
from repro.models.chung_lu import ChungLuModel, build_pi_distribution
from repro.models.rewiring import _SortedAdjacency
from repro.models.tricycle import TriCycLeModel
from repro.params.structural import fit_tricycle
from repro.testing.reference import SequentialTriCycLeModel
from repro.utils.sampling import WeightedSampler


class TestConstruction:
    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            TriCycLeModel(np.array([-1, 2]), 5)
        with pytest.raises(ValueError):
            TriCycLeModel(np.array([1, 2]), -5)

    def test_target_edges(self):
        model = TriCycLeModel(np.array([2, 2, 2]), 1)
        assert model.target_num_edges == 3
        assert model.num_triangles == 1


class TestGeneration:
    def test_preserves_node_and_edge_counts(self, small_social_graph):
        params = fit_tricycle(small_social_graph)
        graph = TriCycLeModel(params.degrees, params.num_triangles).generate(rng=0)
        assert graph.num_nodes == small_social_graph.num_nodes
        assert abs(graph.num_edges - params.num_edges) <= 0.02 * params.num_edges + 2

    def test_reaches_triangle_target_approximately(self, medium_social_graph):
        params = fit_tricycle(medium_social_graph)
        graph = TriCycLeModel(params.degrees, params.num_triangles).generate(rng=1)
        achieved = triangle_count(graph)
        assert achieved >= 0.6 * params.num_triangles

    def test_more_triangles_than_plain_chung_lu(self, medium_social_graph):
        """The defining property: TriCycLe reproduces clustering, FCL does not."""
        params = fit_tricycle(medium_social_graph)
        tricycle_graph = TriCycLeModel(params.degrees, params.num_triangles)\
            .generate(rng=2)
        fcl_graph = ChungLuModel(params.degrees).generate(rng=2)
        assert triangle_count(tricycle_graph) > triangle_count(fcl_graph)

    def test_simple_graph_invariants(self, small_social_graph):
        params = fit_tricycle(small_social_graph)
        graph = TriCycLeModel(params.degrees, params.num_triangles).generate(rng=3)
        edges = list(graph.edges())
        assert len(edges) == len(set(edges))
        assert all(u != v for u, v in edges)

    def test_orphan_handling_produces_connected_graph(self, small_social_graph):
        params = fit_tricycle(small_social_graph)
        graph = TriCycLeModel(params.degrees, params.num_triangles)\
            .generate(rng=4)
        assert is_connected(graph)

    def test_zero_triangle_target_keeps_seed(self, small_social_graph):
        params = fit_tricycle(small_social_graph)
        graph = TriCycLeModel(params.degrees, num_triangles=0).generate(rng=5)
        assert graph.num_edges > 0

    def test_reproducible_with_seed(self, small_social_graph):
        params = fit_tricycle(small_social_graph)
        model = TriCycLeModel(params.degrees, params.num_triangles)
        assert model.generate(rng=11) == model.generate(rng=11)

    def test_mismatched_num_nodes_rejected(self):
        model = TriCycLeModel(np.array([1, 1]), 0)
        with pytest.raises(ValueError):
            model.generate(num_nodes=5)

    def test_degenerate_two_node_sequence(self):
        graph = TriCycLeModel(np.array([1, 1]), 0).generate(rng=0)
        assert graph.num_nodes == 2
        assert graph.num_edges <= 1


class TestEdgeAgeOrder:
    """Seed edges retire in arrival order, not in node-id order.

    Private degree sequences are sorted, so low ids are the lowest-degree
    nodes; retiring edges by id strips those nodes bare, and the final
    repair then destroys the triangles rewiring made.
    """

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sorted_sequence_keeps_triangles_and_few_orphans(
            self, monkeypatch, seed):
        degrees = np.sort(powerlaw_degree_sequence(1000, 10.0, 80, rng=0))
        target = 3000
        isolated = []
        repair = tricycle.post_process_graph

        def counting_repair(graph, *args, **kwargs):
            isolated.append(int(np.count_nonzero(graph.degrees() == 0)))
            return repair(graph, *args, **kwargs)

        monkeypatch.setattr(tricycle, "post_process_graph", counting_repair)
        graph = TriCycLeModel(degrees, target).generate(rng=seed)
        _seed_repair, final_repair = isolated
        assert final_repair < 0.05 * degrees.size
        assert triangle_count(graph) >= 0.9 * target


@st.composite
def rewiring_cases(draw):
    """Small degree sequences with zero-degree rows and many degree-one
    nodes, triangle targets from 0 to unreachable, and an optional
    acceptance vector."""
    core = draw(st.lists(st.integers(2, 9), min_size=1, max_size=30))
    ones = draw(st.integers(0, 20))
    zeros = draw(st.integers(0, 4))
    degrees = np.array(core + [1] * ones + [0] * zeros, dtype=np.int64)
    degrees = degrees[draw(st.permutations(range(degrees.size)))]
    target = draw(st.one_of(st.integers(0, 60), st.just(10 ** 6)))
    acceptance = None
    if draw(st.booleans()):
        w = draw(st.integers(1, 2))
        size = EdgeConfigurationEncoder(w).num_configurations
        acceptance = EdgeAcceptance(
            probabilities=np.array(draw(st.lists(
                st.floats(0.0, 1.0), min_size=size, max_size=size,
            ))),
            node_codes=np.array(draw(st.lists(
                st.integers(0, (1 << w) - 1),
                min_size=degrees.size, max_size=degrees.size,
            )), dtype=np.int64),
            num_attributes=w,
        )
    seed = draw(st.integers(0, 2 ** 16))
    return degrees, target, acceptance, seed


class TestBatchedProposalEquivalence:
    """The exact rewiring loop must be bit-identical to the sequential
    per-proposal oracle — same RNG stream, same graph out."""

    @settings(max_examples=80, deadline=None)
    @given(rewiring_cases())
    def test_equals_sequential_on_small_sequences(self, case):
        degrees, target, acceptance, seed = case
        # The orphan repair warns on sequences too sparse to connect.
        sparse = degrees.sum() // 2 < degrees.size - 1
        with pytest.warns(UserWarning, match="cannot produce a connected") \
                if sparse else nullcontext():
            exact = TriCycLeModel(degrees, target).generate(
                rng=seed, acceptance=acceptance)
            sequential = SequentialTriCycLeModel(degrees, target).generate(
                rng=seed, acceptance=acceptance)
        assert exact == sequential

    def test_second_proposal_block(self, monkeypatch):
        """m > 2 184 edges lifts the iteration budget past one 65 536
        block, and an unreachable target spends all of it."""
        degrees = np.full(600, 8, dtype=np.int64)
        blocks = []

        class CountingSampler(tricycle.WeightedSampler):
            def sample_many(self, count, generator, **kwargs):
                blocks.append(count)
                return super().sample_many(count, generator, **kwargs)

        monkeypatch.setattr(tricycle, "WeightedSampler", CountingSampler)
        exact = TriCycLeModel(degrees, 10 ** 7).generate(rng=4)
        assert blocks.count(65536) == 2
        sequential = SequentialTriCycLeModel(degrees, 10 ** 7).generate(rng=4)
        assert exact == sequential

    def test_second_proposal_block_with_acceptance(self):
        """Coins drawn per block: the first block's unused coins must be
        given back before the second block's proposals are drawn."""
        graph = ChungLuModel(np.full(600, 8, dtype=np.int64)).generate(rng=4)
        assert 30 * graph.num_edges > 65536  # two proposal blocks
        acceptance = _acceptance(graph, np.linspace(0.1, 0.9, 10))
        _assert_equals_oracle(graph, 10 ** 7, 4, acceptance)

    @pytest.mark.parametrize("seed", [0, 1, 2, 7, 13])
    def test_batched_equals_sequential(self, small_social_graph, seed):
        params = fit_tricycle(small_social_graph)
        batched = TriCycLeModel(
            params.degrees, params.num_triangles
        ).generate(rng=seed)
        sequential = SequentialTriCycLeModel(
            params.degrees, params.num_triangles
        ).generate(rng=seed)
        assert batched == sequential

    def test_batched_equals_sequential_medium(self, medium_social_graph):
        params = fit_tricycle(medium_social_graph)
        batched = TriCycLeModel(
            params.degrees, params.num_triangles
        ).generate(rng=3)
        sequential = SequentialTriCycLeModel(
            params.degrees, params.num_triangles
        ).generate(rng=3)
        assert batched == sequential

    def test_batched_equals_sequential_with_acceptance(self, small_social_graph):
        from repro.attributes.encoding import AttributeEncoder, EdgeConfigurationEncoder
        from repro.models.base import EdgeAcceptance

        params = fit_tricycle(small_social_graph)
        w = small_social_graph.num_attributes
        encoder = EdgeConfigurationEncoder(w)
        probabilities = np.linspace(0.5, 1.0, encoder.num_configurations)
        node_codes = AttributeEncoder(w).encode_matrix(small_social_graph.attributes)
        acceptance = EdgeAcceptance(
            probabilities=probabilities, node_codes=node_codes, num_attributes=w
        )
        # The acceptance filter draws from the shared stream mid-loop, so
        # equality requires the batched path to consume RNG identically.
        batched = TriCycLeModel(
            params.degrees, params.num_triangles
        ).generate(rng=11, acceptance=acceptance)
        sequential = SequentialTriCycLeModel(
            params.degrees, params.num_triangles
        ).generate(rng=11, acceptance=acceptance)
        assert batched == sequential

    def test_trailing_zero_degree_rows(self):
        """π can propose nodes whose seed row is empty and sits past the
        last flat entry — the gather must be masked (regression: IndexError
        at lastfm scale 0.2)."""
        rng = np.random.default_rng(0)
        degrees = np.concatenate([
            rng.integers(2, 9, size=40), np.zeros(8, dtype=np.int64),
        ])
        for seed in (0, 1, 2):
            batched = TriCycLeModel(degrees, num_triangles=30)\
                .generate(rng=seed)
            sequential = SequentialTriCycLeModel(degrees, num_triangles=30)\
                .generate(rng=seed)
            assert batched == sequential

    def test_orphan_and_zero_target_paths(self, small_social_graph):
        params = fit_tricycle(small_social_graph)
        for target in (0, params.num_triangles):
            batched = TriCycLeModel(params.degrees, target).generate(rng=5)
            sequential = SequentialTriCycLeModel(params.degrees, target)\
                .generate(rng=5)
            assert batched == sequential


def _edge_keys(graph):
    return {(min(u, v), max(u, v)) for u, v in graph.edges()}


def _acceptance(graph, probabilities, num_attributes=2, seed=0):
    """An acceptance vector over random node codes of ``graph``."""
    codes = np.random.default_rng(seed).integers(
        0, 1 << num_attributes, size=graph.num_nodes)
    size = EdgeConfigurationEncoder(num_attributes).num_configurations
    return EdgeAcceptance(
        probabilities=np.broadcast_to(probabilities, (size,)).copy(),
        node_codes=codes, num_attributes=num_attributes,
    )


def _assert_equals_oracle(graph, target, seed, acceptance):
    """Rewire ``graph`` and a copy through the loop and the oracle: the
    graphs, the queues and the generators' next 8 draws must agree.
    Returns the rewired graph."""
    oracle = graph.copy()
    before = triangle_count(graph)
    edge_age, generator = _rewire(TriCycLeModel, graph, target, seed,
                                  acceptance=acceptance)
    oracle_age, oracle_generator = _rewire(
        SequentialTriCycLeModel, oracle, target, seed, acceptance=acceptance,
    )
    _assert_loop_invariants(graph, edge_age, oracle.num_edges, before)
    assert graph == oracle
    assert list(edge_age) == list(oracle_age)
    assert np.array_equal(generator.random(8), oracle_generator.random(8))
    return graph


def _rewire(model_class, graph, target, seed, factor=30, acceptance=None):
    """Run ``model_class``'s rewiring loop directly on ``graph`` (mutates
    it) from a queue of its edges, packed ``u * n + v``, in id order.

    Returns the queue and the generator, so callers can compare what the
    loop left behind and how much of the stream it consumed.
    """
    n = graph.num_nodes
    edge_age = deque(u * n + v for u, v in graph.edges())
    generator = np.random.default_rng(seed)
    model = model_class(graph.degrees(), target)
    model._rewire_exact(
        graph, _SortedAdjacency(graph), edge_age, triangle_count(graph),
        target, factor * max(graph.num_edges, 1),
        WeightedSampler(build_pi_distribution(graph.degrees())), generator,
        acceptance,
    )
    return edge_age, generator


def _assert_loop_invariants(graph, edge_age, num_edges, triangles_before):
    """Swaps keep the edge count and a simple graph, the queue holds
    exactly the live edges as canonical packed keys, and no accepted swap
    lowers the count."""
    assert graph.num_edges == num_edges
    edges = list(graph.edges())
    assert len(edges) == len(set(edges))
    assert all(u != v for u, v in edges)
    queue = [divmod(key, graph.num_nodes) for key in edge_age]
    assert all(u < v for u, v in queue)
    assert len(queue) == num_edges
    assert len(set(queue)) == len(queue)
    assert set(queue) == _edge_keys(graph)
    assert triangle_count(graph) >= triangles_before


def _hub_graph(num_spokes=120, rng_seed=5):
    """A hub-dominated graph: most proposals walk through the hub rows."""
    rng = np.random.default_rng(rng_seed)
    graph = AttributedGraph(num_spokes + 2, 0)
    for s in range(2, num_spokes + 2):
        graph.add_edge(0, s)
        if rng.random() < 0.5:
            graph.add_edge(1, s)
    graph.add_edge(0, 1)
    # A sprinkle of spoke-to-spoke edges so triangles are reachable.
    for _ in range(3 * num_spokes):
        u, v = rng.integers(2, num_spokes + 2, size=2)
        if u != v and not graph.has_edge(int(u), int(v)):
            graph.add_edge(int(u), int(v))
    return graph


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=6, max_value=24))
    pairs = draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        min_size=6, max_size=60,
    ))
    graph = AttributedGraph(n, 0)
    for u, v in pairs:
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
    return graph


class TestRewiringLoopInvariants:
    """The rewiring loop run directly on arbitrary graphs, not only on
    Chung-Lu seeds: its bookkeeping (the edge-age queue, the tracked τ,
    the one-pass adoption) must stay consistent with the graph it leaves,
    and it must match the per-proposal oracle on the same inputs."""

    def test_queue_matches_live_edges_and_count_never_drops(
            self, medium_social_graph):
        graph = medium_social_graph.copy()
        before = triangle_count(graph)
        target = before + 400
        edge_age, _ = _rewire(TriCycLeModel, graph, target, seed=3)
        _assert_loop_invariants(graph, edge_age, medium_social_graph.num_edges,
                                before)
        # The target is reachable here, so the loop stops at its first
        # crossing rather than at the attempt budget.
        assert triangle_count(graph) >= target

    def test_hub_graph_equals_the_oracle(self):
        graph, oracle = _hub_graph(), _hub_graph()
        before = triangle_count(graph)
        target = before + 200
        edge_age, generator = _rewire(TriCycLeModel, graph, target, seed=9)
        oracle_age, oracle_generator = _rewire(SequentialTriCycLeModel,
                                               oracle, target, seed=9)
        _assert_loop_invariants(graph, edge_age, oracle.num_edges, before)
        assert graph == oracle
        assert list(edge_age) == list(oracle_age)
        assert generator.bit_generator.state \
            == oracle_generator.bit_generator.state

    def test_adoption_clears_the_statistics_memo(self, medium_social_graph):
        graph = medium_social_graph.copy()
        graph.enable_statistics_memo()
        before = triangles_per_node(graph)  # fills the memo
        _rewire(TriCycLeModel, graph, triangle_count(graph) + 400, seed=13)
        assert graph.statistics_memo == {}
        scratch = graph.copy()  # no memo: counts from fresh scans
        assert triangle_count(graph) == triangle_count(scratch)
        assert np.array_equal(triangles_per_node(graph),
                              triangles_per_node(scratch))
        assert not np.array_equal(triangles_per_node(graph), before)
        assert wedge_count(graph) == wedge_count(scratch)
        assert np.array_equal(np.bincount(graph.degrees()),
                              np.bincount(scratch.degrees()))

    @pytest.mark.parametrize("edges, target", [
        ([], 10),                          # no edges to rewire
        ([(0, 1), (1, 2), (0, 2)], 1),     # target already met
    ])
    def test_empty_graph_and_zero_gap_are_noops(self, edges, target):
        """Nothing changes, yet the loop draws the same blocks as the
        oracle, so the stream handed on to the orphan repair agrees."""
        graph = AttributedGraph.from_edges(5, edges)
        edge_age, generator = _rewire(TriCycLeModel, graph, target, seed=1)
        oracle_age, oracle_generator = _rewire(
            SequentialTriCycLeModel, AttributedGraph.from_edges(5, edges),
            target, seed=1,
        )
        assert _edge_keys(graph) == set(edges)
        assert list(edge_age) == list(oracle_age) \
            == [u * 5 + v for u, v in sorted(edges)]
        assert generator.bit_generator.state \
            == oracle_generator.bit_generator.state
        assert generator.bit_generator.state \
            != np.random.default_rng(1).bit_generator.state

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(graph=small_graphs(), seed=st.integers(0, 2 ** 16),
           extra=st.integers(0, 40))
    def test_random_graphs_keep_invariants_and_equal_the_oracle(
            self, graph, seed, extra):
        oracle = graph.copy()
        before = triangle_count(graph)
        num_edges = graph.num_edges
        edge_age, _ = _rewire(TriCycLeModel, graph, before + extra, seed,
                              factor=10)
        oracle_age, _ = _rewire(SequentialTriCycLeModel, oracle,
                                before + extra, seed, factor=10)
        _assert_loop_invariants(graph, edge_age, num_edges, before)
        assert graph == oracle
        assert list(edge_age) == list(oracle_age)

    def test_target_met_mid_block_with_acceptance(self):
        graph = _hub_graph()
        target = triangle_count(graph) + 200
        assert 30 * graph.num_edges < 65536  # one block, cut short
        acceptance = _acceptance(graph, np.linspace(0.3, 1.0, 10))
        graph = _assert_equals_oracle(graph, target, 9, acceptance)
        assert triangle_count(graph) >= target

    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_constant_acceptance_equals_the_oracle(self, value):
        """A all zeros rejects every viable proposal, A all ones accepts
        every coin; either way each viable proposal spends one coin."""
        graph = _hub_graph()
        original = graph.copy()
        target = triangle_count(graph) + 200
        graph = _assert_equals_oracle(graph, target, 9,
                                      _acceptance(graph, value))
        assert (graph == original) == (value == 0.0)
