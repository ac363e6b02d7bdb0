"""Unit tests for the parallel Monte-Carlo experiment runner."""

import pytest

import repro.core.pipeline as pipeline_module
import repro.experiments.runner as runner_module
from repro.core.agm import learn_agm
from repro.core.agm_dp import learn_agm_dp
from repro.core.pipeline import SynthesisPipeline
from repro.experiments.runner import (
    TRIALS_ENV_VAR,
    WORKERS_ENV_VAR,
    default_trials,
    default_workers,
    run_trials,
    run_trials_detailed,
)
from repro.metrics.evaluation import EvaluationReport


class TestDefaultTrials:
    def test_explicit_override_wins(self, monkeypatch):
        monkeypatch.setenv(TRIALS_ENV_VAR, "50")
        assert default_trials(2) == 2

    def test_environment_variable(self, monkeypatch):
        monkeypatch.setenv(TRIALS_ENV_VAR, "7")
        assert default_trials() == 7

    def test_default_value(self, monkeypatch):
        monkeypatch.delenv(TRIALS_ENV_VAR, raising=False)
        assert default_trials() >= 1

    def test_invalid_override(self):
        with pytest.raises(ValueError):
            default_trials(0)


class TestCountEnvironment:
    """``REPRO_TRIALS`` and ``REPRO_WORKERS`` fail loudly, naming themselves."""

    @pytest.mark.parametrize("resolve, env_var", [
        (default_trials, TRIALS_ENV_VAR),
        (default_workers, WORKERS_ENV_VAR),
    ])
    @pytest.mark.parametrize("raw", ["lots", "2.5", "0", "-3"])
    def test_bad_values_name_the_variable(self, monkeypatch, resolve,
                                          env_var, raw):
        monkeypatch.setenv(env_var, raw)
        with pytest.raises(ValueError, match=f"{env_var}='{raw}'"):
            resolve()

    @pytest.mark.parametrize("resolve, env_var", [
        (default_trials, TRIALS_ENV_VAR),
        (default_workers, WORKERS_ENV_VAR),
    ])
    def test_an_explicit_argument_is_not_read_from_the_environment(
            self, monkeypatch, resolve, env_var):
        monkeypatch.setenv(env_var, "lots")
        assert resolve(3) == 3


class TestRunners:
    def test_non_private_runner(self, small_social_graph):
        pipeline = SynthesisPipeline(backend="fcl", num_iterations=1)
        report = run_trials(small_social_graph, pipeline, 1, rng=0)
        assert isinstance(report, EvaluationReport)
        assert report.edge_count_mre < 0.2

    def test_private_runner(self, small_social_graph):
        pipeline = SynthesisPipeline(epsilon=1.0, backend="fcl",
                                     num_iterations=1)
        report = run_trials(small_social_graph, pipeline, 1, rng=0)
        assert isinstance(report, EvaluationReport)

    def test_non_private_runner_fits_once(self, small_social_graph,
                                          monkeypatch):
        calls = []

        def counted(graph, backend):
            calls.append(backend)
            return learn_agm(graph, backend=backend)

        monkeypatch.setattr(runner_module, "learn_agm", counted)
        monkeypatch.setattr(pipeline_module, "learn_agm", counted)
        pipeline = SynthesisPipeline(backend="fcl", num_iterations=1)
        run_trials(small_social_graph, pipeline, 3, rng=0)
        assert calls == ["fcl"]
        # The handed-in pipeline is left as it was.
        assert pipeline.parameters is None

    def test_private_runner_refits_every_trial(self, small_social_graph,
                                               monkeypatch):
        calls = []

        def counted(graph, epsilon, **kwargs):
            calls.append(epsilon)
            return learn_agm_dp(graph, epsilon, **kwargs)

        monkeypatch.setattr(pipeline_module, "learn_agm_dp", counted)
        pipeline = SynthesisPipeline(epsilon=1.0, backend="fcl",
                                     num_iterations=1)
        run_trials(small_social_graph, pipeline, 3, rng=0)
        assert calls == [1.0, 1.0, 1.0]

    def test_dispatch(self, small_social_graph):
        private = SynthesisPipeline(epsilon=1.0, backend="fcl",
                                    num_iterations=1)
        non_private = SynthesisPipeline(backend="fcl", num_iterations=1)
        assert isinstance(run_trials(small_social_graph, private, 1, rng=0),
                          EvaluationReport)
        assert isinstance(run_trials(small_social_graph, non_private, 1,
                                     rng=0), EvaluationReport)

    def test_trials_must_be_positive(self, small_social_graph):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            run_trials(small_social_graph, SynthesisPipeline(), 0)

    def test_default_workers(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        assert default_workers() == 1
        monkeypatch.setenv(WORKERS_ENV_VAR, "6")
        assert default_workers() == 6
        assert default_workers(2) == 2
        with pytest.raises(ValueError):
            default_workers(0)


class TestParallelDeterminism:
    """The acceptance bar: the schedule must not change the numbers."""

    @pytest.mark.parametrize("backend", ["tricycle", "fcl"])
    def test_parallel_bit_identical_to_serial(self, small_social_graph, backend):
        pipeline = SynthesisPipeline(epsilon=1.0, backend=backend,
                                     num_iterations=1)
        serial = run_trials_detailed(small_social_graph, pipeline, 8,
                                     rng=20160626, workers=1)
        parallel = run_trials_detailed(small_social_graph, pipeline, 8,
                                       rng=20160626, workers=4)
        assert parallel.workers > 1
        # Bit-identical averaged reports, not approximately equal.
        assert serial.report == parallel.report
        assert serial.trial_reports == parallel.trial_reports

    def test_serial_reproducible_from_seed(self, small_social_graph):
        pipeline = SynthesisPipeline(epsilon=1.0, backend="fcl",
                                     num_iterations=1)
        first = run_trials(small_social_graph, pipeline, 3, rng=5)
        second = run_trials(small_social_graph, pipeline, 3, rng=5)
        assert first == second

    @pytest.mark.parametrize("backend", ["tricycle", "fcl"])
    def test_manifest_spends_sum_to_budget(self, small_social_graph, backend):
        pipeline = SynthesisPipeline(epsilon=1.0, backend=backend,
                                     num_iterations=1)
        outcome = run_trials_detailed(small_social_graph, pipeline, 2, rng=0,
                                      workers=2)
        assert len(outcome.manifests) == 2
        for manifest in outcome.manifests:
            assert manifest.total_spent == pytest.approx(1.0)
        assert sum(outcome.spend_summary().values()) == pytest.approx(1.0)

    def test_workers_capped_by_trials(self, small_social_graph):
        pipeline = SynthesisPipeline(epsilon=1.0, backend="fcl",
                                     num_iterations=1)
        outcome = run_trials_detailed(small_social_graph, pipeline, 2, rng=0,
                                      workers=16)
        assert outcome.workers == 2
