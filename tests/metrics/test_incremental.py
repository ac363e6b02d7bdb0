"""Accelerated evaluation must be bit-identical to the from-scratch path."""

import numpy as np

from repro.core.pipeline import SynthesisPipeline
from repro.graphs.accel import MetricsAccelerator
from repro.graphs.statistics import (
    triangle_count_reference,
    triangles_per_node_reference,
)
from repro.metrics.evaluation import evaluate_synthetic_graph
from repro.metrics.incremental import (
    accelerator_stats,
    cached_connection_probabilities,
    ensure_accelerator,
    prepare_original_graph,
)
from repro.models.chung_lu import ChungLuModel, build_pi_distribution
from repro.models.postprocess import post_process_graph
from repro.testing.reference import evaluate_synthetic_graph_reference


def _synthetics(graph, count=3):
    from repro.graphs.attributed import AttributedGraph

    model = ChungLuModel(graph.degrees())
    samples = []
    for seed in range(count):
        structure = model.generate(rng=seed)
        sample = AttributedGraph.from_graph_structure(
            structure, graph.num_attributes
        )
        sample.set_all_attributes(graph.attributes)
        samples.append(sample)
    return samples


class TestAcceleratedEvaluation:
    def test_reports_bit_identical_to_from_scratch(self, small_social_graph):
        original = small_social_graph.copy()
        for synthetic in _synthetics(original):
            scratch = evaluate_synthetic_graph_reference(
                original.copy(), synthetic.copy()
            )
            accelerated = evaluate_synthetic_graph(original, synthetic)
            assert accelerated == scratch

    def test_bit_identical_after_mutations(self, small_social_graph):
        original = small_social_graph.copy()
        prepare_original_graph(original)
        synthetic = _synthetics(original, count=1)[0]
        ensure_accelerator(synthetic).prime()
        # Mutate both sides while primed: maintained counts must keep the
        # accelerated report equal to a clean from-scratch evaluation.
        original.remove_edge(*next(iter(original.edges())))
        synthetic.add_edge(0, original.num_nodes - 1)
        accelerated = evaluate_synthetic_graph(original, synthetic)
        scratch = evaluate_synthetic_graph_reference(
            original.copy(), synthetic.copy()
        )
        assert accelerated == scratch

    def test_original_side_is_memoized(self, small_social_graph):
        original = small_social_graph.copy()
        accel = prepare_original_graph(original)
        first = cached_connection_probabilities(original)
        second = cached_connection_probabilities(original)
        assert first is second
        assert accel.stats()["memo_hits"] >= 1
        # prepare is idempotent: no second scan, no second Θ_F pass.
        assert prepare_original_graph(original) is accel
        assert accel.stats()["primes"] == 2  # triangle tier + degree tier

    def test_accelerator_stats_surface(self, small_social_graph):
        original = small_social_graph.copy()
        assert accelerator_stats(original) is None
        prepare_original_graph(original)
        stats = accelerator_stats(original)
        assert stats is not None and stats["primed"]


class TestPipelineIntegration:
    def test_manifest_carries_accelerator_stats(self, small_social_graph):
        pipeline = SynthesisPipeline(samples=2, evaluate=True)
        result = pipeline.run(small_social_graph.copy(), rng=3)
        stats = result.manifest.extra.get("metrics_accelerator")
        assert stats is not None
        assert stats["primed"]
        assert stats["served_queries"] > 0
        # The manifest stays JSON-round-trippable with the stats attached.
        from repro.core.pipeline import RunManifest

        restored = RunManifest.from_dict(result.manifest.to_dict())
        assert restored.extra["metrics_accelerator"] == stats

    def test_repair_engine_carries_counts_into_copy(self, small_social_graph):
        graph = small_social_graph.copy()  # connected: nothing to repair
        accel = MetricsAccelerator.attach(graph).prime()
        desired = graph.degrees()
        repaired = post_process_graph(
            graph, desired, build_pi_distribution(desired), rng=11
        )
        seeded = repaired.metrics_accelerator
        assert seeded is not None and seeded.is_primed
        assert seeded.stats()["primes"] == 0  # counts carried, not rescanned
        assert seeded.triangle_count() == triangle_count_reference(repaired)
        # The source graph's accelerator was never disturbed.
        assert graph.metrics_accelerator is accel and accel.is_primed

    def test_repair_that_mutates_keeps_counts_exact(self, small_social_graph):
        graph = small_social_graph.copy()
        for node in (3, 17, 42):  # strand a few nodes for the repair
            for neighbour in list(graph.neighbors(node)):
                graph.remove_edge(node, neighbour)
        accel = MetricsAccelerator.attach(graph).prime()
        desired = small_social_graph.degrees()
        repaired = post_process_graph(
            graph, desired, build_pi_distribution(desired), rng=11
        )
        assert repaired.num_edges > graph.num_edges
        seeded = repaired.metrics_accelerator
        assert seeded is not None
        assert seeded.triangle_count() == triangle_count_reference(repaired)
        assert np.array_equal(
            seeded.triangles_per_node(),
            triangles_per_node_reference(repaired),
        )
        assert graph.metrics_accelerator is accel and accel.is_primed
