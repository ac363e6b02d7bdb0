"""Unit tests for the orphan-repair post-processing step (Algorithm 2)."""

import warnings

import numpy as np
import pytest

from repro.core.acceptance import observed_correlations
from repro.graphs.attributed import AttributedGraph
from repro.graphs.components import is_connected
from repro.models.base import EdgeAcceptance
from repro.models.chung_lu import ChungLuModel, build_pi_distribution
from repro.models.postprocess import post_process_graph
from repro.testing.reference import post_process_graph_scalar

#: The repair under test, keyed by whether it is the vectorized production
#: engine or the scalar oracle.
REPAIRS = {True: post_process_graph, False: post_process_graph_scalar}


def graph_with_orphans() -> AttributedGraph:
    """A main component (0-1-2-3 cycle plus chord) and orphans 4, 5, 6."""
    graph = AttributedGraph(7, 0)
    graph.add_edges_from([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    graph.add_edge(4, 5)  # a stray two-node component
    return graph


class TestPostProcess:
    def _desired(self):
        return np.array([3, 2, 3, 2, 1, 1, 1])

    def test_output_is_connected(self):
        graph = graph_with_orphans()
        desired = self._desired()
        pi = build_pi_distribution(desired)
        repaired = post_process_graph(graph, desired, pi, rng=0)
        assert is_connected(repaired)

    def test_edge_count_matches_desired_total(self):
        graph = graph_with_orphans()
        desired = self._desired()
        pi = build_pi_distribution(desired)
        repaired = post_process_graph(graph, desired, pi, rng=1)
        assert repaired.num_edges == int(desired.sum() // 2)

    def test_original_graph_not_modified(self):
        graph = graph_with_orphans()
        desired = self._desired()
        pi = build_pi_distribution(desired)
        before = graph.num_edges
        post_process_graph(graph, desired, pi, rng=2)
        assert graph.num_edges == before

    def test_connected_input_is_untouched(self, triangle_graph):
        desired = triangle_graph.degrees()
        pi = build_pi_distribution(desired)
        repaired = post_process_graph(triangle_graph, desired, pi, rng=0)
        assert repaired == triangle_graph

    def test_shape_validation(self, triangle_graph):
        with pytest.raises(ValueError):
            post_process_graph(triangle_graph, np.array([1, 2]),
                               np.array([0.5, 0.5]), rng=0)
        with pytest.raises(ValueError):
            post_process_graph(triangle_graph, triangle_graph.degrees(),
                               np.array([0.5, 0.5]), rng=0)

    def test_reproducible_with_seed(self):
        graph = graph_with_orphans()
        desired = self._desired()
        pi = build_pi_distribution(desired)
        a = post_process_graph(graph, desired, pi, rng=9)
        b = post_process_graph(graph, desired, pi, rng=9)
        assert a == b

    def test_many_isolated_nodes(self):
        # The desired degrees must admit a connected graph (sum/2 >= n - 1).
        graph = AttributedGraph(10, 0)
        graph.add_edges_from([(0, 1), (1, 2), (2, 0)])
        desired = np.array([4, 4, 4, 2, 1, 1, 1, 1, 1, 1])
        pi = build_pi_distribution(desired)
        repaired = post_process_graph(graph, desired, pi, rng=3)
        assert is_connected(repaired)


def _repair_workload(seed: int, num_nodes: int = 400):
    """A Chung-Lu seed graph with orphans plus its desired degrees and π.

    Mirrors the TriCycLe pipeline's Algorithm 2 input: degree-one nodes are
    excluded from the seed π, so they start orphaned and the repair must
    wire them up while holding the edge count at ``sum(desired) // 2``.
    """
    rng = np.random.default_rng(seed)
    desired = np.where(
        rng.random(num_nodes) < 0.4,
        1,
        rng.integers(2, 9, size=num_nodes),
    ).astype(np.int64)
    seed_model = ChungLuModel(
        desired, exclude_degree_one=True
    )
    graph = seed_model.generate(rng=rng)
    pi = build_pi_distribution(desired, exclude_degree_one=True)
    return graph, desired, pi


class TestVectorizedRepair:
    """The vectorized engine: determinism, invariants, equivalence."""

    def test_deterministic_per_seed(self):
        graph, desired, pi = _repair_workload(0)
        first = post_process_graph(graph, desired, pi, rng=7)
        second = post_process_graph(graph, desired, pi, rng=7)
        assert first == second

    @pytest.mark.parametrize("seed", range(6))
    def test_exact_edge_target_and_connectivity(self, seed):
        graph, desired, pi = _repair_workload(seed)
        repaired = post_process_graph(graph, desired, pi, rng=seed)
        assert repaired.num_edges == int(desired.sum() // 2)
        assert is_connected(repaired)

    @pytest.mark.parametrize("vectorized", [False, True])
    def test_small_graph_invariants_both_paths(self, vectorized):
        graph = graph_with_orphans()
        desired = np.array([3, 2, 3, 2, 1, 1, 1])
        pi = build_pi_distribution(desired)
        repaired = REPAIRS[vectorized](graph, desired, pi, rng=5)
        assert is_connected(repaired)
        assert repaired.num_edges == int(desired.sum() // 2)

    def test_distributional_equivalence_against_reference(self):
        """Same edge count, connectivity rate and degree sequence as scalar.

        The two paths consume the RNG differently, so the comparison is
        distributional: identical exact invariants per seed, plus averaged
        degree-sequence closeness across seeds.
        """
        seeds = range(8)
        degree_gaps = []
        connected_scalar = connected_vector = 0
        for seed in seeds:
            graph, desired, pi = _repair_workload(seed)
            scalar = post_process_graph_scalar(graph, desired, pi, rng=seed)
            vector = post_process_graph(graph, desired, pi, rng=seed)
            assert scalar.num_edges == vector.num_edges \
                == int(desired.sum() // 2)
            connected_scalar += is_connected(scalar)
            connected_vector += is_connected(vector)
            degree_gaps.append(np.abs(
                np.sort(scalar.degrees()) - np.sort(vector.degrees())
            ).mean())
        assert abs(connected_scalar - connected_vector) <= 1
        assert float(np.mean(degree_gaps)) < 0.25

    def test_theta_f_closeness_with_acceptance(self):
        """The repair must not wash out attribute correlations (Θ'_F)."""
        observed = {False: [], True: []}
        for seed in range(6):
            graph, desired, pi = _repair_workload(seed, num_nodes=300)
            rng = np.random.default_rng(100 + seed)
            attributes = rng.integers(0, 2, size=(graph.num_nodes, 1))
            structured = AttributedGraph.from_graph_structure(graph, 1)
            structured.set_all_attributes(attributes)
            acceptance = EdgeAcceptance(
                probabilities=np.array([1.0, 0.6, 0.3]),
                node_codes=attributes[:, 0].astype(np.int64),
                num_attributes=1,
            )
            for vectorized in (False, True):
                repaired = REPAIRS[vectorized](
                    structured, desired, pi, rng=seed, acceptance=acceptance,
                )
                observed[vectorized].append(observed_correlations(repaired))
        scalar_mean = np.mean(observed[False], axis=0)
        vector_mean = np.mean(observed[True], axis=0)
        assert np.allclose(scalar_mean, vector_mean, atol=0.02)

    @pytest.mark.parametrize("vectorized", [False, True])
    def test_infeasible_target_warns_and_stops(self, vectorized):
        """target < n - 1 can never give one component: warn, don't churn."""
        graph = AttributedGraph(10, 0)
        graph.add_edges_from([(0, 1), (1, 2), (2, 0), (3, 4), (5, 6)])
        desired = np.array([2, 2, 2, 1, 1, 1, 1, 1, 0, 1])
        pi = build_pi_distribution(desired)
        with pytest.warns(UserWarning, match="spanning minimum"):
            repaired = REPAIRS[vectorized](graph, desired, pi, rng=11)
        assert repaired.num_edges <= int(desired.sum() // 2)
        assert not is_connected(repaired)

    @pytest.mark.parametrize("vectorized", [False, True])
    def test_infeasible_warns_once_per_call(self, vectorized):
        graph = AttributedGraph(10, 0)
        graph.add_edges_from([(0, 1), (1, 2), (2, 0)])
        desired = np.array([2, 2, 2, 1, 1, 1, 1, 1, 0, 1])
        pi = build_pi_distribution(desired)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            REPAIRS[vectorized](graph, desired, pi, rng=3)
        infeasible = [w for w in caught
                      if "spanning minimum" in str(w.message)]
        assert len(infeasible) == 1

    def test_empty_pi_falls_back_to_uniform_draws(self):
        graph = graph_with_orphans()
        desired = np.array([3, 2, 3, 2, 1, 1, 1])
        repaired = post_process_graph(graph, desired, np.zeros(7), rng=2)
        assert is_connected(repaired)

    def test_acceptance_rejections_still_terminate(self):
        graph, desired, pi = _repair_workload(3, num_nodes=200)
        acceptance = EdgeAcceptance(
            probabilities=np.array([0.05, 0.05, 0.05]),
            node_codes=np.zeros(graph.num_nodes, dtype=np.int64),
            num_attributes=1,
        )
        repaired = post_process_graph(
            graph, desired, pi, rng=1, acceptance=acceptance
        )
        assert repaired.num_edges <= int(desired.sum() // 2)
