"""Tests for the synthesis pipeline and its run manifest."""

import dataclasses
import json

import numpy as np
import pytest

from repro.core.agm import DEFAULT_NUM_ITERATIONS, AgmSynthesizer
from repro.core.agm_dp import BudgetSplit
from repro.core.pipeline import DEFAULT_STAGES, RunManifest, SynthesisPipeline
from repro.metrics.evaluation import EvaluationReport
from repro.testing.faults import FaultPlan, FaultPoint
from repro.utils.rng import spawn_streams


class TestConfiguration:
    def test_default_stage_order(self, small_social_graph):
        result = SynthesisPipeline(
            epsilon=1.0, backend="fcl", num_iterations=1
        ).run(small_social_graph, rng=0)
        assert result.manifest.stages == list(DEFAULT_STAGES) == [
            "estimate", "fit", "generate", "evaluate",
        ]

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError):
            SynthesisPipeline(epsilon=1.0, backend="ergm")

    def test_invalid_epsilon_rejected(self):
        with pytest.raises(ValueError):
            SynthesisPipeline(epsilon=0.0)

    def test_invalid_samples_rejected(self):
        with pytest.raises(ValueError):
            SynthesisPipeline(samples=0)

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

    def test_labels_match_paper_names(self):
        assert SynthesisPipeline(epsilon=0.5, backend="tricycle").label \
            == "AGMDP-TriCL"
        assert SynthesisPipeline(epsilon=0.5, backend="fcl").label \
            == "AGMDP-FCL"
        assert SynthesisPipeline(backend="tricycle").label == "AGM-TriCL"
        assert SynthesisPipeline(backend="fcl").label == "AGM-FCL"

    def test_is_private_flag(self):
        assert SynthesisPipeline(epsilon=1.0).is_private
        assert not SynthesisPipeline().is_private

    def test_frozen_and_replace_revalidates(self):
        pipeline = SynthesisPipeline(epsilon=1.0, backend="fcl", samples=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            pipeline.samples = 3
        public = dataclasses.replace(pipeline, epsilon=None)
        assert public.label == "AGM-FCL" and public.samples == 2
        with pytest.raises(ValueError):
            dataclasses.replace(pipeline, backend="ergm")
        with pytest.raises(TypeError):
            SynthesisPipeline(1.0, "fcl", None)  # the rest is keyword-only

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


def _assert_same_parameters(left, right):
    assert left.backend == right.backend
    np.testing.assert_array_equal(left.attribute_distribution.probabilities,
                                  right.attribute_distribution.probabilities)
    np.testing.assert_array_equal(left.correlations.probabilities,
                                  right.correlations.probabilities)
    assert type(left.structural) is type(right.structural)
    np.testing.assert_array_equal(left.structural.degrees,
                                  right.structural.degrees)
    assert getattr(left.structural, "num_triangles", None) == \
        getattr(right.structural, "num_triangles", None)


@pytest.mark.parametrize("backend", ["tricycle", "fcl"])
class TestStreamLayout:
    """Stage ``i`` draws from child ``i`` of the root seed."""

    def test_fit_learns_what_run_learns(self, small_social_graph, backend):
        pipeline = SynthesisPipeline(epsilon=1.0, backend=backend)
        fitted = pipeline.fit(small_social_graph, rng=7)
        ran = pipeline.run(small_social_graph, rng=7)
        _assert_same_parameters(fitted.parameters, ran.parameters)
        assert fitted.graphs == [] and fitted.reports == []
        assert fitted.report is None
        assert fitted.manifest.stages == ["estimate", "fit"]
        assert fitted.manifest.spends == ran.manifest.spends
        assert fitted.manifest.allocations == ran.manifest.allocations
        assert fitted.manifest.splits == ran.manifest.splits

    def test_run_samples_from_the_generate_child(self, small_social_graph,
                                                 backend):
        result = SynthesisPipeline(
            epsilon=1.0, backend=backend, samples=2
        ).run(small_social_graph, rng=7)
        generate_rng = spawn_streams(7, 3)[2]  # child 2 of the root
        synthesizer = AgmSynthesizer(result.parameters)
        assert result.graphs == [synthesizer.sample(rng=generate_rng)
                                 for _ in range(2)]


class TestFaultPointOrder:
    @staticmethod
    def _recording_plan(fired):
        def record(point, hit):
            fired.append(point)

        return FaultPlan([
            FaultPoint(name=f"pipeline.stage.{stage}.{edge}", action=record)
            for stage in DEFAULT_STAGES for edge in ("start", "end")
        ])

    def test_run_fires_every_stage_in_order(self, small_social_graph):
        fired = []
        with self._recording_plan(fired):
            SynthesisPipeline(
                epsilon=1.0, backend="fcl", num_iterations=1
            ).run(
                small_social_graph, rng=0,
                checkpoint=lambda: fired.append("checkpoint"),
            )
        assert fired == [
            "checkpoint",
            "pipeline.stage.estimate.start", "pipeline.stage.estimate.end",
            "checkpoint",
            "pipeline.stage.fit.start", "pipeline.stage.fit.end",
            "checkpoint",
            "pipeline.stage.generate.start", "pipeline.stage.generate.end",
            "checkpoint",
            "pipeline.stage.evaluate.start", "pipeline.stage.evaluate.end",
            "checkpoint",
        ]

    def test_fit_fires_only_estimate_and_fit(self, small_social_graph):
        fired = []
        with self._recording_plan(fired):
            SynthesisPipeline(epsilon=1.0, backend="fcl").fit(
                small_social_graph, rng=0,
                checkpoint=lambda: fired.append("checkpoint"),
            )
        assert fired == [
            "checkpoint",
            "pipeline.stage.estimate.start", "pipeline.stage.estimate.end",
            "checkpoint",
            "pipeline.stage.fit.start", "pipeline.stage.fit.end",
            "checkpoint",
        ]
