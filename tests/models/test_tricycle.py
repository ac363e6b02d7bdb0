"""Unit tests for the TriCycLe structural model (Algorithm 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.models.tricycle as tricycle
from repro.attributes.encoding import EdgeConfigurationEncoder
from repro.datasets.synthetic import powerlaw_degree_sequence
from repro.graphs.components import is_connected
from repro.graphs.statistics import degree_sequence, triangle_count
from repro.models.base import EdgeAcceptance
from repro.models.tricycle import TriCycLeModel
from repro.params.structural import fit_tricycle
from repro.testing.reference import SequentialTriCycLeModel


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
        from repro.models.chung_lu import ChungLuModel

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
        graph = TriCycLeModel(
            params.degrees, params.num_triangles, handle_orphans=True
        ).generate(rng=4)
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
        graph = TriCycLeModel(np.array([1, 1]), 0, handle_orphans=False).generate(rng=0)
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
    # The orphan repair warns on sequences too sparse to connect.
    handle_orphans = draw(st.booleans()) \
        and degrees.sum() // 2 >= degrees.size - 1
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
    return degrees, target, handle_orphans, acceptance, seed


class TestBatchedProposalEquivalence:
    """The exact rewiring loop must be bit-identical to the sequential
    per-proposal oracle — same RNG stream, same graph out."""

    @settings(max_examples=80, deadline=None)
    @given(rewiring_cases())
    def test_equals_sequential_on_small_sequences(self, case):
        degrees, target, handle_orphans, acceptance, seed = case
        exact = TriCycLeModel(
            degrees, target, handle_orphans=handle_orphans,
        ).generate(rng=seed, acceptance=acceptance)
        sequential = SequentialTriCycLeModel(
            degrees, target, handle_orphans=handle_orphans,
        ).generate(rng=seed, acceptance=acceptance)
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
        exact = TriCycLeModel(
            degrees, 10 ** 7, handle_orphans=False,
        ).generate(rng=4)
        assert blocks.count(65536) == 2
        sequential = SequentialTriCycLeModel(
            degrees, 10 ** 7, handle_orphans=False,
        ).generate(rng=4)
        assert exact == sequential

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
            batched = TriCycLeModel(
                degrees, num_triangles=30, handle_orphans=False,
            ).generate(rng=seed)
            sequential = SequentialTriCycLeModel(
                degrees, num_triangles=30, handle_orphans=False,
            ).generate(rng=seed)
            assert batched == sequential

    def test_orphan_and_zero_target_paths(self, small_social_graph):
        params = fit_tricycle(small_social_graph)
        for target in (0, params.num_triangles):
            batched = TriCycLeModel(
                params.degrees, target, handle_orphans=True,
            ).generate(rng=5)
            sequential = SequentialTriCycLeModel(
                params.degrees, target, handle_orphans=True,
            ).generate(rng=5)
            assert batched == sequential
