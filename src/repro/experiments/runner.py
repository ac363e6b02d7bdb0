"""Parallel Monte-Carlo experiment runner shared by all tables and figures.

The paper reports averages over many synthetic graphs per configuration
(1 000 for the small datasets, 100 for the large ones).  The runner executes
one :class:`~repro.core.pipeline.SynthesisPipeline` per trial — refitting
the DP parameters every trial, as the paper does, so the averages include
the learning noise — and can fan the trials out over worker processes.

Determinism contract
--------------------
Trial ``i`` always runs on the ``i``-th random stream spawned from the root
seed (:func:`repro.utils.rng.spawn_streams`), and reports are averaged in
trial order.  The schedule therefore has **no effect on the numbers**: the
parallel runner is bit-identical to the serial one at the same seed, which
``tests/experiments/test_runner.py`` pins.

Trial counts default to small values appropriate for a laptop run; the
``REPRO_TRIALS`` environment variable raises them for full reproductions,
and ``REPRO_WORKERS`` sets the default worker-process count.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.core.agm import DEFAULT_NUM_ITERATIONS
from repro.core.agm_dp import BudgetSplit
from repro.core.pipeline import RunManifest, SynthesisPipeline
from repro.core.registry import get_backend
from repro.graphs.attributed import AttributedGraph
from repro.metrics.evaluation import EvaluationReport, average_reports
from repro.utils.rng import SeedLike, spawn_streams

#: Environment variable overriding the number of Monte-Carlo trials.
TRIALS_ENV_VAR = "REPRO_TRIALS"

#: Environment variable overriding the number of worker processes.
WORKERS_ENV_VAR = "REPRO_WORKERS"

#: Default number of synthetic graphs averaged per configuration.
DEFAULT_TRIALS = 3


def default_trials(override: Optional[int] = None) -> int:
    """Resolve the trial count: explicit argument, environment variable, default."""
    if override is not None:
        if override < 1:
            raise ValueError(f"trials must be >= 1, got {override}")
        return int(override)
    env = os.environ.get(TRIALS_ENV_VAR)
    if env:
        return max(1, int(env))
    return DEFAULT_TRIALS


def default_workers(override: Optional[int] = None) -> int:
    """Resolve the worker count: explicit argument, environment variable, serial."""
    if override is not None:
        if override < 1:
            raise ValueError(f"workers must be >= 1, got {override}")
        return int(override)
    env = os.environ.get(WORKERS_ENV_VAR)
    if env:
        return max(1, int(env))
    return 1


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration of one AGM(-DP) Monte-Carlo estimate.

    Attributes
    ----------
    backend:
        A registered structural backend name (``"tricycle"``, ``"fcl"``, ...).
    epsilon:
        Privacy budget, or ``None`` for the non-private baseline.
    trials:
        Number of synthetic graphs to average over.
    num_iterations:
        Acceptance-refinement rounds used when sampling, one generation
        each.
    truncation_k:
        Truncation parameter for Θ_F (``None`` for the ``n^(1/3)`` heuristic).
    budget_split:
        Optional custom budget split for the DP variant.
    workers:
        Worker processes for the Monte-Carlo fan-out (``None``: the
        ``REPRO_WORKERS`` environment variable, else serial; an explicit
        ``1`` pins the run serial regardless of the environment).  The
        numbers are identical either way.
    handle_orphans:
        Forwarded to the structural backend's model builder.
    memory_budget_mb:
        Optional generation memory budget in MiB for every trial's samples.
    samples:
        Synthetic graphs each trial samples, scores and averages.
    """

    backend: str = "tricycle"
    epsilon: Optional[float] = None
    trials: int = DEFAULT_TRIALS
    num_iterations: int = DEFAULT_NUM_ITERATIONS
    truncation_k: Optional[int] = None
    budget_split: Optional[BudgetSplit] = None
    workers: Optional[int] = None
    handle_orphans: bool = True
    memory_budget_mb: Optional[int] = None
    samples: int = 1

    @classmethod
    def from_spec(cls, spec) -> "ExperimentConfig":
        """The configuration a :class:`repro.api.ReleaseSpec` describes.

        This is the runner's half of the thin-client contract: all config
        parsing, defaulting and validation happens in the spec; the runner
        only reads the already-validated fields (duck-typed, so the runner
        keeps no import dependency on :mod:`repro.api`).
        """
        return cls(
            backend=spec.backend,
            epsilon=spec.epsilon,
            trials=spec.trials,
            num_iterations=spec.num_iterations,
            truncation_k=spec.truncation_k,
            budget_split=spec.budget_split,
            workers=spec.workers,
            handle_orphans=spec.handle_orphans,
            memory_budget_mb=spec.memory_budget_mb,
            samples=spec.samples,
        )

    @property
    def is_private(self) -> bool:
        """Whether this configuration uses the DP learners."""
        return self.epsilon is not None

    @property
    def label(self) -> str:
        """Human-readable label matching the paper's model names."""
        model = get_backend(self.backend).label
        if self.is_private:
            return f"AGMDP-{model}"
        return f"AGM-{model}"

    def build_pipeline(self, parameters=None) -> SynthesisPipeline:
        """The per-trial synthesis pipeline this configuration describes.

        ``parameters`` optionally injects prefit (exact) AGM parameters,
        which the fit stage adopts instead of learning — used by the
        non-private runner, which fits once and samples per trial.
        """
        return SynthesisPipeline(
            epsilon=self.epsilon,
            backend=self.backend,
            truncation_k=self.truncation_k,
            budget_split=self.budget_split,
            num_iterations=self.num_iterations,
            handle_orphans=self.handle_orphans,
            memory_budget_mb=self.memory_budget_mb,
            samples=self.samples,
            parameters=parameters,
        )


@dataclass
class TrialsResult:
    """Everything a Monte-Carlo estimate produced, beyond the averaged report."""

    report: EvaluationReport
    trial_reports: List[EvaluationReport]
    manifests: List[RunManifest] = field(default_factory=list)
    workers: int = 1

    @property
    def trials(self) -> int:
        """Number of Monte-Carlo trials executed."""
        return len(self.trial_reports)

    @property
    def manifest(self) -> Optional[RunManifest]:
        """The first trial's manifest (splits and spends are trial-invariant)."""
        return self.manifests[0] if self.manifests else None

    def spend_summary(self) -> Dict[str, float]:
        """Average per-stage ε spend across trials (empty for non-private runs)."""
        totals: Dict[str, float] = {}
        for manifest in self.manifests:
            for stage, spent in manifest.spends.items():
                totals[stage] = totals.get(stage, 0.0) + spent
        count = max(1, len(self.manifests))
        return {stage: spent / count for stage, spent in totals.items()}


def _run_one_trial(graph: AttributedGraph, config: ExperimentConfig,
                   stream, parameters=None
                   ) -> "tuple[EvaluationReport, RunManifest]":
    """Execute a single Monte-Carlo trial on its dedicated random stream."""
    result = config.build_pipeline(parameters=parameters).run(graph, rng=stream)
    return result.report, result.manifest


#: Per-worker-process state installed by :func:`_pool_initializer`, so the
#: (potentially large) input graph is shipped once per worker instead of
#: once per trial task.
_WORKER_STATE: Dict[str, object] = {}


def _pool_initializer(graph: AttributedGraph, config: ExperimentConfig,
                      parameters) -> None:
    _WORKER_STATE["graph"] = graph
    _WORKER_STATE["config"] = config
    _WORKER_STATE["parameters"] = parameters


def _trial_worker(stream) -> "tuple[EvaluationReport, RunManifest]":
    """Top-level process-pool entry point (must be picklable by name)."""
    return _run_one_trial(
        _WORKER_STATE["graph"], _WORKER_STATE["config"], stream,
        parameters=_WORKER_STATE["parameters"],
    )


def run_trials_detailed(graph: AttributedGraph, config: ExperimentConfig,
                        rng: SeedLike = None,
                        workers: Optional[int] = None) -> TrialsResult:
    """Run ``config.trials`` pipelines and return reports plus manifests.

    Parameters
    ----------
    graph:
        The input attributed graph.
    config:
        The experiment configuration.
    rng:
        Root seed; trial ``i`` runs on the ``i``-th spawned stream, so the
        result is a pure function of ``(graph, config, rng)`` regardless of
        the worker count.
    workers:
        Worker processes; resolution order is this argument, then
        ``config.workers``, then the ``REPRO_WORKERS`` environment
        variable, then serial.
    """
    if config.trials < 1:
        raise ValueError(f"trials must be >= 1, got {config.trials}")
    if workers is not None:
        worker_count = default_workers(workers)
    elif config.workers is not None:
        worker_count = default_workers(config.workers)
    else:
        worker_count = default_workers()
    worker_count = min(worker_count, config.trials)

    # Exact (non-private) learning is deterministic and consumes no
    # randomness, so fit once here and share the parameters across trials —
    # bit-identical to refitting per trial, without multiplying the fitting
    # cost by the trial count.  DP learning must refit per trial (the paper
    # averages over the learning noise too).
    parameters = None
    if not config.is_private:
        from repro.core.agm import learn_agm

        parameters = learn_agm(graph, backend=config.backend)

    # Warm the evaluation baseline once: its memoized triangle census and
    # Θ_F probabilities ride into every serial trial directly and into
    # every worker process through the pool initializer's pickled graph,
    # so per-trial evaluation never rescans the original.
    from repro.metrics.incremental import prepare_original_graph

    prepare_original_graph(graph)

    streams = spawn_streams(rng, config.trials)
    if worker_count <= 1:
        outcomes = [
            _run_one_trial(graph, config, stream, parameters=parameters)
            for stream in streams
        ]
    else:
        with ProcessPoolExecutor(
            max_workers=worker_count,
            initializer=_pool_initializer,
            initargs=(graph, config, parameters),
        ) as pool:
            outcomes = list(pool.map(_trial_worker, streams))

    reports = [report for report, _manifest in outcomes]
    manifests = [manifest for _report, manifest in outcomes]
    return TrialsResult(
        report=average_reports(reports),
        trial_reports=reports,
        manifests=manifests,
        workers=worker_count,
    )


def run_trials(graph: AttributedGraph, config: ExperimentConfig,
               rng: SeedLike = None,
               workers: Optional[int] = None) -> EvaluationReport:
    """Average the evaluation metrics of ``config.trials`` pipeline runs."""
    return run_trials_detailed(graph, config, rng=rng, workers=workers).report


def run_agm_trials(graph: AttributedGraph, config: ExperimentConfig,
                   rng: SeedLike = None,
                   workers: Optional[int] = None) -> EvaluationReport:
    """Average ``config.trials`` non-private samples (compatibility wrapper)."""
    if config.is_private:
        config = replace(config, epsilon=None, budget_split=None)
    return run_trials(graph, config, rng=rng, workers=workers)


def run_agm_dp_trials(graph: AttributedGraph, config: ExperimentConfig,
                      rng: SeedLike = None,
                      workers: Optional[int] = None) -> EvaluationReport:
    """Average ``config.trials`` DP samples.

    Each trial refits the DP parameters (as the paper does), so the reported
    averages include the learning noise, not just the sampling noise.
    """
    if config.epsilon is None:
        raise ValueError("run_agm_dp_trials requires a configuration with epsilon set")
    return run_trials(graph, config, rng=rng, workers=workers)
