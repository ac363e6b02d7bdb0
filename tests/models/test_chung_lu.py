"""Unit tests for the Chung-Lu / FCL structural model."""

import numpy as np
import pytest

from repro.graphs.statistics import degree_sequence
from repro.models.base import EdgeAcceptance
from repro.models.chung_lu import ChungLuModel, build_pi_distribution


class TestPiDistribution:
    def test_proportional_to_degree(self):
        pi = build_pi_distribution(np.array([1, 2, 3]))
        assert pi.tolist() == pytest.approx([1 / 6, 2 / 6, 3 / 6])

    def test_sums_to_one(self, small_social_graph):
        pi = build_pi_distribution(small_social_graph.degrees())
        assert pi.sum() == pytest.approx(1.0)

    def test_exclude_degree_one(self):
        pi = build_pi_distribution(np.array([1, 2, 1, 4]), exclude_degree_one=True)
        assert pi[0] == 0.0 and pi[2] == 0.0
        assert pi.sum() == pytest.approx(1.0)

    def test_all_degree_one_falls_back(self):
        pi = build_pi_distribution(np.array([1, 1]), exclude_degree_one=True)
        assert pi.sum() == pytest.approx(1.0)
        assert np.all(pi > 0)

    def test_all_zero_degrees_gives_uniform(self):
        pi = build_pi_distribution(np.array([0, 0, 0]))
        assert np.allclose(pi, 1 / 3)


class TestChungLuModel:
    def test_invalid_degrees_rejected(self):
        with pytest.raises(ValueError):
            ChungLuModel(np.array([-1, 2]))

    def test_target_edge_count(self):
        model = ChungLuModel(np.array([2, 2, 2]))
        assert model.target_num_edges == 3

    def test_generates_target_edges(self, small_social_graph):
        degrees = degree_sequence(small_social_graph, sort=True)
        model = ChungLuModel(degrees)
        graph = model.generate(rng=0)
        assert graph.num_nodes == small_social_graph.num_nodes
        assert graph.num_edges == model.target_num_edges

    def test_simple_graph_invariants(self, small_social_graph):
        graph = ChungLuModel(degree_sequence(small_social_graph)).generate(rng=1)
        edges = list(graph.edges())
        assert len(edges) == len(set(edges))
        assert all(u != v for u, v in edges)

    def test_degree_sequence_roughly_preserved(self, medium_social_graph):
        degrees = degree_sequence(medium_social_graph, sort=True)
        graph = ChungLuModel(degrees).generate(rng=2)
        generated = np.sort(graph.degrees())
        # Expected degrees are only matched in expectation; compare the means
        # and the upper tail loosely.
        assert generated.mean() == pytest.approx(degrees.mean(), rel=0.05)
        assert generated.max() >= 0.5 * degrees.max()

    def test_num_nodes_mismatch_rejected(self):
        model = ChungLuModel(np.array([1, 1]))
        with pytest.raises(ValueError):
            model.generate(num_nodes=3)

    def test_exclude_degree_one_reduces_target(self):
        degrees = np.array([1, 1, 2, 2])
        model = ChungLuModel(degrees, exclude_degree_one=True)
        assert model.effective_target_edges() == model.target_num_edges - 2

    def test_zero_degrees_generate_empty_graph(self):
        graph = ChungLuModel(np.zeros(4, dtype=int)).generate(rng=0)
        assert graph.num_edges == 0

    def test_reproducible_with_seed(self, small_social_graph):
        degrees = degree_sequence(small_social_graph)
        a = ChungLuModel(degrees).generate(rng=7)
        b = ChungLuModel(degrees).generate(rng=7)
        assert a == b


class TestAcceptanceFiltering:
    def _acceptance(self, num_nodes: int, probabilities, codes=None):
        from repro.attributes.encoding import EdgeConfigurationEncoder

        encoder = EdgeConfigurationEncoder(1)
        if codes is None:
            codes = np.zeros(num_nodes, dtype=np.int64)
            codes[num_nodes // 2:] = 1
        return EdgeAcceptance(
            probabilities=np.asarray(probabilities, dtype=float),
            node_codes=codes,
            num_attributes=1,
        )

    def test_unit_acceptance_keeps_edge_count(self, small_social_graph):
        degrees = degree_sequence(small_social_graph)
        acceptance = self._acceptance(small_social_graph.num_nodes, [1.0, 1.0, 1.0])
        graph = ChungLuModel(degrees).generate(rng=0, acceptance=acceptance)
        assert graph.num_edges == ChungLuModel(degrees).target_num_edges

    def test_zero_acceptance_for_cross_edges_suppresses_them(self, small_social_graph):
        degrees = degree_sequence(small_social_graph)
        n = small_social_graph.num_nodes
        codes = np.zeros(n, dtype=np.int64)
        codes[n // 2:] = 1
        # Configurations: (0,0), (0,1), (1,1); forbid mixed edges.
        acceptance = self._acceptance(n, [1.0, 1e-6, 1.0], codes)
        graph = ChungLuModel(degrees).generate(rng=0, acceptance=acceptance)
        mixed = sum(1 for u, v in graph.edges() if codes[u] != codes[v])
        assert mixed <= 0.02 * graph.num_edges
