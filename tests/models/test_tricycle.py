"""Unit tests for the TriCycLe structural model (Algorithm 1)."""

import numpy as np
import pytest

from repro.graphs.components import is_connected
from repro.graphs.statistics import degree_sequence, triangle_count
from repro.models.tricycle import TriCycLeModel
from repro.params.structural import fit_tricycle
from repro.testing.reference import SequentialTriCycLeModel


class TestConstruction:
    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            TriCycLeModel(np.array([-1, 2]), 5)
        with pytest.raises(ValueError):
            TriCycLeModel(np.array([1, 2]), -5)
        with pytest.raises(ValueError):
            TriCycLeModel(np.array([1, 2]), 5, max_iteration_factor=0)

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


class TestBatchedProposalEquivalence:
    """The vectorized proposal-block engine must be bit-identical to the
    sequential per-proposal oracle — same RNG stream, same graph out."""

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
