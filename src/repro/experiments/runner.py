"""Parallel Monte-Carlo experiment runner shared by all tables and figures.

The paper reports averages over many synthetic graphs per configuration
(1 000 for the small datasets, 100 for the large ones).  The runner takes a
:class:`~repro.core.pipeline.SynthesisPipeline` and runs it once per trial
— a private pipeline refits the DP parameters every trial, as the paper
does, so the averages include the learning noise — and can fan the trials
out over worker processes.  A non-private pipeline is fitted once up front
instead, since exact learning draws no randomness.

Determinism contract
--------------------
Trial ``i`` always runs on the ``i``-th random stream spawned from the root
seed (:func:`repro.utils.rng.spawn_streams`), and reports are averaged in
trial order.  The schedule therefore has **no effect on the numbers**: the
parallel runner is bit-identical to the serial one at the same seed, which
``tests/experiments/test_runner.py`` pins.

Trial counts default to small values appropriate for a laptop run; the
``REPRO_TRIALS`` environment variable raises them for full reproductions,
and ``REPRO_WORKERS`` sets the default worker-process count.  Either one
set to anything but a positive integer raises ``ValueError``.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.core.agm import learn_agm
from repro.core.pipeline import RunManifest, SynthesisPipeline
from repro.graphs.attributed import AttributedGraph
from repro.metrics.evaluation import EvaluationReport, average_reports
from repro.utils.rng import SeedLike, spawn_streams
from repro.utils.validation import positive_from_env

#: Environment variable overriding the number of Monte-Carlo trials.
TRIALS_ENV_VAR = "REPRO_TRIALS"

#: Environment variable overriding the number of worker processes.
WORKERS_ENV_VAR = "REPRO_WORKERS"

#: Default number of synthetic graphs averaged per configuration.
DEFAULT_TRIALS = 3


def _resolve_count(name: str, override: Optional[int], env_var: str,
                   fallback: int) -> int:
    """A positive count: explicit argument, else ``env_var``, else ``fallback``.

    Raises ``ValueError`` for an argument below 1, and for an environment
    value that is not an integer or is below 1, naming the variable.
    """
    if override is None:
        return positive_from_env(env_var, fallback)
    if override < 1:
        raise ValueError(f"{name} must be >= 1, got {override}")
    return int(override)


def default_trials(override: Optional[int] = None) -> int:
    """Resolve the trial count: explicit argument, ``REPRO_TRIALS``, default."""
    return _resolve_count("trials", override, TRIALS_ENV_VAR, DEFAULT_TRIALS)


def default_workers(override: Optional[int] = None) -> int:
    """Resolve the worker count: explicit argument, ``REPRO_WORKERS``, serial."""
    return _resolve_count("workers", override, WORKERS_ENV_VAR, 1)


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


def _run_one_trial(graph: AttributedGraph, pipeline: SynthesisPipeline,
                   stream) -> "tuple[EvaluationReport, RunManifest]":
    """Execute a single Monte-Carlo trial on its dedicated random stream."""
    result = pipeline.run(graph, rng=stream)
    return result.report, result.manifest


#: Per-worker-process state installed by :func:`_pool_initializer`, so the
#: (potentially large) input graph is shipped once per worker instead of
#: once per trial task.
_WORKER_STATE: Dict[str, object] = {}


def _pool_initializer(graph: AttributedGraph,
                      pipeline: SynthesisPipeline) -> None:
    _WORKER_STATE["graph"] = graph
    _WORKER_STATE["pipeline"] = pipeline


def _trial_worker(stream) -> "tuple[EvaluationReport, RunManifest]":
    """Top-level process-pool entry point (must be picklable by name)."""
    return _run_one_trial(_WORKER_STATE["graph"], _WORKER_STATE["pipeline"],
                          stream)


def run_trials_detailed(graph: AttributedGraph, pipeline: SynthesisPipeline,
                        trials: int, rng: SeedLike = None,
                        workers: Optional[int] = None) -> TrialsResult:
    """Run ``pipeline`` ``trials`` times and return reports plus manifests.

    Parameters
    ----------
    graph:
        The input attributed graph.
    pipeline:
        The synthesis pipeline each trial runs.
    trials:
        Number of Monte-Carlo trials (>= 1).
    rng:
        Root seed; trial ``i`` runs on the ``i``-th spawned stream, so the
        result is a pure function of ``(graph, pipeline, trials, rng)``
        regardless of the worker count.
    workers:
        Worker processes; ``None`` reads the ``REPRO_WORKERS`` environment
        variable, else runs serially.  Never more than ``trials``.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    worker_count = min(default_workers(workers), trials)

    # Exact (non-private) learning is deterministic and consumes no
    # randomness, so fit once here and share the parameters across trials —
    # bit-identical to refitting per trial, without multiplying the fitting
    # cost by the trial count.  DP learning must refit per trial (the paper
    # averages over the learning noise too).
    if not pipeline.is_private and pipeline.parameters is None:
        pipeline = replace(pipeline, parameters=learn_agm(
            graph, backend=pipeline.backend))

    # Warm the evaluation baseline once: its memoized triangle census and
    # Θ_F probabilities ride into every serial trial directly and into
    # every worker process through the pool initializer's pickled graph,
    # so per-trial evaluation never rescans the original.
    from repro.metrics.incremental import prepare_original_graph

    prepare_original_graph(graph)

    streams = spawn_streams(rng, trials)
    if worker_count <= 1:
        outcomes = [_run_one_trial(graph, pipeline, stream)
                    for stream in streams]
    else:
        with ProcessPoolExecutor(
            max_workers=worker_count,
            initializer=_pool_initializer,
            initargs=(graph, pipeline),
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


def run_trials(graph: AttributedGraph, pipeline: SynthesisPipeline,
               trials: int, rng: SeedLike = None,
               workers: Optional[int] = None) -> EvaluationReport:
    """Average the evaluation metrics of ``trials`` runs of ``pipeline``."""
    return run_trials_detailed(graph, pipeline, trials, rng=rng,
                               workers=workers).report
