"""Unit tests for the synthetic dataset generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.synthetic import (
    _induce_homophily,
    attributed_social_graph,
    epinions_like,
    lastfm_like,
    petster_like,
    pokec_like,
    powerlaw_degree_sequence,
)
from repro.graphs.attributed import AttributedGraph
from repro.graphs.components import is_connected
from repro.graphs.statistics import average_local_clustering, triangle_count
from repro.params.correlations import connection_probabilities
from repro.testing.reference import induce_homophily_reference


class TestPowerlawDegreeSequence:
    def test_length_and_bounds(self):
        degrees = powerlaw_degree_sequence(500, average_degree=8.0, max_degree=50,
                                           rng=0)
        assert degrees.size == 500
        assert degrees.min() >= 1
        assert degrees.max() <= 50

    def test_mean_close_to_target(self):
        degrees = powerlaw_degree_sequence(2000, average_degree=10.0, max_degree=100,
                                           rng=1)
        assert degrees.mean() == pytest.approx(10.0, rel=0.05)

    def test_even_sum(self):
        degrees = powerlaw_degree_sequence(301, average_degree=5.0, max_degree=40,
                                           rng=2)
        assert degrees.sum() % 2 == 0

    def test_heavy_tail_present(self):
        degrees = powerlaw_degree_sequence(2000, average_degree=8.0, max_degree=120,
                                           rng=3)
        assert degrees.max() > 4 * degrees.mean()

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            powerlaw_degree_sequence(10, average_degree=0.0, max_degree=5)
        with pytest.raises(ValueError):
            powerlaw_degree_sequence(10, average_degree=2.0, max_degree=0)


class TestAttributedSocialGraph:
    def test_basic_shape(self, small_social_graph):
        assert small_social_graph.num_attributes == 2
        assert small_social_graph.num_edges > 0
        assert is_connected(small_social_graph)

    def test_homophily_is_induced(self):
        correlated = attributed_social_graph(
            num_nodes=250, average_degree=8, max_degree=30, num_triangles=500,
            attribute_marginals=(0.5,), homophily=0.9, rng=0,
        )
        independent = attributed_social_graph(
            num_nodes=250, average_degree=8, max_degree=30, num_triangles=500,
            attribute_marginals=(0.5,), homophily=0.0, rng=0,
        )

        def same_attribute_fraction(graph):
            same = sum(
                1 for u, v in graph.edges()
                if graph.attributes[u, 0] == graph.attributes[v, 0]
            )
            return same / graph.num_edges

        assert same_attribute_fraction(correlated) > same_attribute_fraction(independent)

    def test_attribute_marginals_respected(self):
        graph = attributed_social_graph(
            num_nodes=600, average_degree=8, max_degree=40, num_triangles=800,
            attribute_marginals=(0.3, 0.7), homophily=0.5, rng=1,
        )
        marginals = graph.attributes.mean(axis=0)
        assert marginals[0] == pytest.approx(0.3, abs=0.08)
        assert marginals[1] == pytest.approx(0.7, abs=0.08)

    def test_triangle_target_roughly_met(self):
        graph = attributed_social_graph(
            num_nodes=300, average_degree=10, max_degree=40, num_triangles=900,
            rng=2,
        )
        assert triangle_count(graph) >= 0.5 * 900

    def test_reproducible_with_seed(self):
        a = attributed_social_graph(100, 6, 20, 100, rng=5)
        b = attributed_social_graph(100, 6, 20, 100, rng=5)
        assert a == b

    def test_zero_attributes_supported(self):
        graph = attributed_social_graph(
            num_nodes=100, average_degree=6, max_degree=20, num_triangles=50,
            attribute_marginals=(), rng=0,
        )
        assert graph.num_attributes == 0


class TestNamedDatasets:
    @pytest.mark.parametrize("generator", [lastfm_like, petster_like])
    def test_small_scale_generation(self, generator):
        graph = generator(scale=0.05, seed=0)
        assert graph.num_nodes > 20
        assert graph.num_attributes == 2
        assert is_connected(graph)

    def test_epinions_like_small(self):
        graph = epinions_like(scale=0.01, seed=0)
        assert graph.num_nodes > 50
        assert graph.num_attributes == 2

    def test_pokec_like_small(self):
        graph = pokec_like(scale=0.001, seed=0)
        assert graph.num_nodes > 100
        assert graph.num_attributes == 2

    def test_datasets_exhibit_homophily(self):
        graph = lastfm_like(scale=0.1, seed=1)
        correlations = connection_probabilities(graph)
        uniform = 1.0 / correlations.size
        # The correlation distribution must be far from uniform.
        assert correlations.max() > 2 * uniform

    def test_datasets_exhibit_clustering(self):
        graph = petster_like(scale=0.1, seed=1)
        assert average_local_clustering(graph) > 0.03

    def test_scale_changes_size(self):
        small = lastfm_like(scale=0.05, seed=2)
        larger = lastfm_like(scale=0.15, seed=2)
        assert larger.num_nodes > small.num_nodes


homophily_cases = st.integers(min_value=2, max_value=16).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=4 * n,
        ),
        st.integers(1, 3),
        st.sampled_from([0.25, 0.7, 1.0]),
        st.integers(0, 2**32 - 1),
    )
)


class TestHomophilyOracle:
    """The histogram hill-climb against the per-neighbour gain scan."""

    @staticmethod
    def _assert_matches_scan(graph, strength, seed):
        expected = graph.copy()
        generator = np.random.default_rng(seed)
        reference_generator = np.random.default_rng(seed)
        _induce_homophily(graph, strength, generator)
        induce_homophily_reference(expected, strength, reference_generator)
        assert np.array_equal(graph.attributes, expected.attributes)
        assert (generator.bit_generator.state
                == reference_generator.bit_generator.state)

    @settings(max_examples=120, deadline=None)
    @given(homophily_cases)
    def test_bit_identical_to_the_scan(self, case):
        num_nodes, edges, width, strength, seed = case
        graph = AttributedGraph(num_nodes, width)
        for u, v in edges:
            if u != v:
                graph.add_edge(u, v)
        graph.set_all_attributes(np.random.default_rng(seed).integers(
            0, 2, size=(num_nodes, width)).astype(np.uint8))
        self._assert_matches_scan(graph, strength, seed)

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_adjacent_proposals_on_a_clique(self, width):
        # Every proposal of two distinct nodes is an adjacent pair.
        graph = AttributedGraph(6, width)
        graph.add_edges_from([(u, v) for u in range(6) for v in range(u + 1, 6)])
        graph.set_all_attributes(np.random.default_rng(width).integers(
            0, 2, size=(6, width)).astype(np.uint8))
        self._assert_matches_scan(graph, 1.0, width)
