"""Memoized evaluation must be bit-identical to the from-scratch path.

It must also do the same scans at every step of the release path: one
per-node census to prime the input, none for a fit on a pickled primed
input (beyond one common-neighbour maximum), one per new sample scored.
"""

import pickle
from collections import Counter

from repro.api import ReleaseSession, ReleaseSpec
from repro.core.pipeline import SynthesisPipeline
from repro.graphs.statistics import triangle_count
from repro.metrics.evaluation import evaluate_synthetic_graph
from repro.metrics.incremental import (
    CORRELATIONS_KEY,
    cached_connection_probabilities,
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


def _scans(scan_log, graph=None):
    return Counter(kind for kind, scanned in scan_log
                   if graph is None or scanned is graph)


def _spec(seed):
    return ReleaseSpec(dataset="petster", scale=0.03, epsilon=1.0, seed=seed,
                       num_iterations=1)


class TestMemoizedEvaluation:
    def test_reports_bit_identical_to_from_scratch(self, small_social_graph):
        original = small_social_graph.copy()
        prepare_original_graph(original)
        for synthetic in _synthetics(original):
            memoized = evaluate_synthetic_graph(original, synthetic)
            # Both graphs' memos are now filled; the oracle ignores them.
            assert evaluate_synthetic_graph_reference(original, synthetic) \
                == memoized
            assert evaluate_synthetic_graph(original, synthetic) == memoized

    def test_bit_identical_after_mutations(self, small_social_graph):
        original = small_social_graph.copy()
        prepare_original_graph(original)
        synthetic = _synthetics(original, count=1)[0]
        evaluate_synthetic_graph(original, synthetic)
        # Mutate both sides while their memos are filled: the next report
        # must equal a clean from-scratch evaluation.
        original.remove_edge(*next(iter(original.edges())))
        synthetic.add_edge(0, original.num_nodes - 1)
        assert evaluate_synthetic_graph(original, synthetic) == \
            evaluate_synthetic_graph_reference(original, synthetic)

    def test_oracle_rescans_a_primed_graph(self, small_social_graph,
                                           scan_log):
        original = small_social_graph.copy()
        prepare_original_graph(original)
        synthetic = _synthetics(original, count=1)[0]
        scan_log.clear()
        evaluate_synthetic_graph_reference(original, synthetic)
        expected = {"totals": 2, "per-node": 1}
        assert _scans(scan_log, original) == expected
        assert _scans(scan_log, synthetic) == expected

    def test_original_side_is_memoized(self, small_social_graph):
        original = small_social_graph.copy()
        prepare_original_graph(original)
        first = cached_connection_probabilities(original)
        assert cached_connection_probabilities(original) is first
        assert original.statistics_memo[CORRELATIONS_KEY] is first
        # prepare is idempotent: no second Θ_F pass.
        prepare_original_graph(original)
        assert cached_connection_probabilities(original) is first

    def test_evaluation_primes_both_graphs(self, small_social_graph,
                                           scan_log):
        original = small_social_graph.copy()
        synthetic = _synthetics(original, count=1)[0]
        evaluate_synthetic_graph(original, synthetic)
        for graph in (original, synthetic):
            assert set(graph.statistics_memo) == {"triangles",
                                                  CORRELATIONS_KEY}
        assert _scans(scan_log) == {"per-node": 2}


class TestScansPerStep:
    """The triangle and common-neighbour scans each release-path step runs."""

    def test_prime_runs_one_per_node_scan(self, small_social_graph,
                                          scan_log):
        original = small_social_graph.copy()
        prepare_original_graph(original)
        prepare_original_graph(original)  # idempotent: no second scan
        assert _scans(scan_log) == {"per-node": 1}

    def test_fit_on_a_pickled_primed_graph(self, small_social_graph,
                                           scan_log):
        original = small_social_graph.copy()
        prepare_original_graph(original)
        primed = pickle.dumps(original)
        scan_log.clear()
        ReleaseSession().fit(_spec(0), graph=pickle.loads(primed))
        assert _scans(scan_log) == {"max-cn": 1}
        scan_log.clear()
        shared = pickle.loads(primed)
        ReleaseSession().fit(_spec(1), graph=shared)
        ReleaseSession().fit(_spec(2), graph=shared)
        assert _scans(scan_log) == {"max-cn": 1}

    def test_fit_on_an_unprimed_graph_stores_nothing(self, small_social_graph,
                                                     scan_log):
        graph = small_social_graph.copy()
        ReleaseSession().fit(_spec(0), graph=graph)
        assert _scans(scan_log) == {"totals": 1, "max-cn": 1}
        assert graph.statistics_memo is None

    def test_scoring_a_sample_twice(self, small_social_graph, scan_log):
        original = small_social_graph.copy()
        prepare_original_graph(original)
        sample = _synthetics(original, count=1)[0]
        scan_log.clear()
        first = evaluate_synthetic_graph(original, sample)
        assert _scans(scan_log) == {"per-node": 1}
        scan_log.clear()
        assert evaluate_synthetic_graph(original, sample) == first
        assert not scan_log


class TestPipelineIntegration:
    def test_evaluate_stage_primes_the_input(self, small_social_graph):
        graph = small_social_graph.copy()
        pipeline = SynthesisPipeline(samples=2, evaluate=True)
        result = pipeline.run(graph, rng=3)
        assert result.report is not None
        assert set(graph.statistics_memo) >= {"triangles", CORRELATIONS_KEY}

    def test_repair_output_starts_without_a_memo(self, small_social_graph):
        graph = small_social_graph.copy()
        for node in (3, 17, 42):  # strand a few nodes for the repair
            for neighbour in list(graph.neighbors(node)):
                graph.remove_edge(node, neighbour)
        prepare_original_graph(graph)
        before = graph.statistics_memo["triangles"]
        desired = small_social_graph.degrees()
        repaired = post_process_graph(
            graph, desired, build_pi_distribution(desired), rng=11
        )
        assert repaired.num_edges > graph.num_edges
        assert repaired.statistics_memo is None
        # The source graph's memo was never disturbed.
        assert graph.statistics_memo["triangles"] is before
        assert triangle_count(graph) == before[0]
