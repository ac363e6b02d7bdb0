"""Tests for the staged synthesis pipeline and its run manifest."""

import json

import pytest

from repro.core.agm import DEFAULT_NUM_ITERATIONS
from repro.core.agm_dp import BudgetSplit
from repro.core.pipeline import (
    DEFAULT_STAGES,
    PipelineStage,
    RunManifest,
    SynthesisPipeline,
    get_stage,
    register_stage,
    stage_names,
)
from repro.metrics.evaluation import EvaluationReport


class TestConfiguration:
    def test_default_stage_order(self):
        pipeline = SynthesisPipeline(epsilon=1.0)
        assert pipeline.stage_order() == DEFAULT_STAGES

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError):
            SynthesisPipeline(epsilon=1.0, backend="ergm")

    def test_invalid_epsilon_rejected(self):
        with pytest.raises(ValueError):
            SynthesisPipeline(epsilon=0.0)

    def test_invalid_samples_rejected(self):
        with pytest.raises(ValueError):
            SynthesisPipeline(samples=0)

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError):
            SynthesisPipeline(stages=("estimate", "mystery"))

    def test_duplicate_stage_rejected(self):
        with pytest.raises(ValueError):
            SynthesisPipeline(stages=("fit", "fit"))

    def test_default_stages_registered(self):
        assert set(DEFAULT_STAGES) <= set(stage_names())
        assert get_stage("fit").name == "fit"

    def test_prefit_parameters_skip_fit(self, small_social_graph):
        from repro.core.agm import learn_agm

        prefit = learn_agm(small_social_graph, backend="fcl")
        result = SynthesisPipeline(
            backend="fcl", num_iterations=1, parameters=prefit
        ).run(small_social_graph, rng=0)
        assert result.parameters is prefit
        # Bit-identical to refitting inside the run: exact learning is
        # deterministic and consumes no randomness.
        refit = SynthesisPipeline(
            backend="fcl", num_iterations=1
        ).run(small_social_graph, rng=0)
        assert result.graph == refit.graph

    def test_prefit_parameters_incompatible_with_privacy(self,
                                                         small_social_graph):
        from repro.core.agm import learn_agm

        prefit = learn_agm(small_social_graph, backend="fcl")
        with pytest.raises(ValueError):
            SynthesisPipeline(epsilon=1.0, backend="fcl", parameters=prefit)
        with pytest.raises(ValueError):
            SynthesisPipeline(backend="tricycle", parameters=prefit)


class TestPrivateRun:
    @pytest.fixture(scope="class")
    def result(self, small_social_graph):
        pipeline = SynthesisPipeline(
            epsilon=1.0, backend="tricycle", num_iterations=1
        )
        return pipeline.run(small_social_graph, rng=0)

    def test_produces_graph_and_report(self, result, small_social_graph):
        assert result.graph.num_nodes == small_social_graph.num_nodes
        assert isinstance(result.report, EvaluationReport)

    def test_manifest_spends_sum_to_budget(self, result):
        manifest = result.manifest
        assert manifest.private
        assert manifest.total_spent == pytest.approx(1.0)
        assert manifest.spends["attributes"] == pytest.approx(0.25)
        assert manifest.spends["structural.degrees"] == pytest.approx(0.25)
        assert manifest.spends["structural.triangles"] == pytest.approx(0.25)

    def test_manifest_records_stages_and_timings(self, result):
        manifest = result.manifest
        assert manifest.stages == list(DEFAULT_STAGES)
        assert set(manifest.timings) == set(DEFAULT_STAGES)
        assert all(seconds >= 0 for seconds in manifest.timings.values())

    def test_manifest_serializes_to_json(self, result):
        payload = json.loads(result.manifest.to_json())
        assert payload["backend"] == "tricycle"
        assert payload["seed"] == 0
        assert payload["graph"]["num_nodes"] == result.graph.num_nodes
        assert payload["total_spent"] == pytest.approx(1.0)

    def test_accountant_attached(self, result):
        assert result.accountant is not None
        assert result.accountant.spent == pytest.approx(1.0)

    def test_manifest_without_num_iterations_reads_the_default(
            self, small_social_graph):
        manifest = SynthesisPipeline(epsilon=1.0, backend="fcl").run(
            small_social_graph, rng=0).manifest.to_dict()
        assert manifest["num_iterations"] == DEFAULT_NUM_ITERATIONS == 2
        del manifest["num_iterations"]
        assert RunManifest.from_dict(manifest).num_iterations == 2


class TestDeterminismAndVariants:
    def test_same_seed_same_output(self, small_social_graph):
        pipeline = SynthesisPipeline(epsilon=1.0, num_iterations=1)
        first = pipeline.run(small_social_graph, rng=42)
        second = pipeline.run(small_social_graph, rng=42)
        assert first.graph == second.graph
        assert first.report == second.report

    def test_non_private_run(self, small_social_graph):
        pipeline = SynthesisPipeline(epsilon=None, backend="fcl",
                                     num_iterations=1)
        result = pipeline.run(small_social_graph, rng=1)
        assert not result.manifest.private
        assert result.manifest.spends == {}
        assert result.accountant is None
        assert result.report is not None

    def test_fcl_manifest_spends(self, small_social_graph):
        result = SynthesisPipeline(
            epsilon=2.0, backend="fcl", num_iterations=1
        ).run(small_social_graph, rng=0)
        spends = result.manifest.spends
        assert spends["structural.degrees"] == pytest.approx(1.0)
        assert result.manifest.total_spent == pytest.approx(2.0)

    def test_custom_budget_split_lands_in_manifest(self, small_social_graph):
        split = BudgetSplit(attributes=0.2, correlations=0.5, structural=0.3)
        result = SynthesisPipeline(
            epsilon=1.0, backend="fcl", budget_split=split, num_iterations=1
        ).run(small_social_graph, rng=0)
        assert result.manifest.splits["correlations"] == pytest.approx(0.5)
        assert result.manifest.spends["correlations"] == pytest.approx(0.5)

    def test_multiple_samples(self, small_social_graph):
        result = SynthesisPipeline(
            epsilon=1.0, backend="fcl", samples=3, num_iterations=1
        ).run(small_social_graph, rng=0)
        assert len(result.graphs) == 3
        assert len(result.reports) == 3

    def test_evaluate_disabled(self, small_social_graph):
        result = SynthesisPipeline(
            epsilon=1.0, backend="fcl", evaluate=False, num_iterations=1
        ).run(small_social_graph, rng=0)
        assert result.report is None
        assert result.reports == []


class TestPluggableStages:
    def test_custom_stage_instance(self, small_social_graph):
        seen = {}

        class AuditStage(PipelineStage):
            name = "audit"

            def run(self, context):
                seen["spent"] = context.accountant.spent

        result = SynthesisPipeline(
            epsilon=1.0, backend="fcl", num_iterations=1,
            stages=("estimate", "fit", AuditStage(), "generate",
                    "postprocess", "evaluate"),
        ).run(small_social_graph, rng=0)
        assert seen["spent"] == pytest.approx(1.0)
        assert "audit" in result.manifest.timings

    def test_postprocess_hooks_run(self, small_social_graph):
        calls = []

        def hook(graph, rng):
            calls.append(graph.num_edges)
            return graph

        SynthesisPipeline(
            epsilon=1.0, backend="fcl", num_iterations=1,
            postprocessors=(hook,),
        ).run(small_social_graph, rng=0)
        assert len(calls) == 1

    def test_register_stage_requires_stage_subclass(self):
        with pytest.raises(TypeError):
            register_stage(dict)
