"""Paired non-inferiority of a candidate sampling contract against a reference.

A change to how :class:`~repro.core.agm.AgmSynthesizer` samples may change
its samples' law.  This gate asks whether the candidate contract is worse
than the reference by more than a fixed margin on any paper metric, on the
release path (``fit`` → ``sample`` → ``evaluate_synthetic_graph``).  A
two-sided equivalence test would also flag a candidate that is *better*
on a metric, so the test is one-sided.  Every parameter below was fixed
before any candidate ran; a failing metric is reported, not retuned:

* **Input.** ``load_dataset("pokec", scale, seed=0)`` and, per backend, the
  artifact of ``ReleaseSpec(dataset="pokec", scale=scale, seed=0,
  epsilon=1.0, backend=backend, num_iterations=2)``.
* **Ensemble.** :data:`ENSEMBLE_SIZE` = 40 sample seeds, 0-39.  Seed ``s``
  samples from ``spawn_streams(s, 1)[0]``, the stream
  :meth:`~repro.api.artifact.ModelArtifact.sample` draws its first sample
  from.  Both contracts sample every seed, so the samples are paired and
  share the attribute draw.
* **Metrics** (:data:`METRICS`, lower is better): the 8
  :class:`~repro.metrics.evaluation.EvaluationReport` columns against the
  input, plus ``private_theta_f_hellinger``, the Hellinger distance from
  the sample's Θ'_F to the artifact's private Θ_F.
* **Margin.** δ_m is the reference contract's between-sample standard
  deviation of metric ``m`` (``ddof=1``) in the same ensemble.  A metric
  whose reference sd is 0 (the edge count, which both backends hit
  exactly) must match exactly.
* **Verdict.** With ``d`` = candidate − reference per seed, metric ``m``
  passes iff ``mean(d) + 1.685 · sd(d) / √40 ≤ δ_m``: a one-sided 95%
  upper bound (Student's t with 39 degrees of freedom) on the mean
  difference.

No production module imports this one (a guard test walks ``src/repro``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, List, Sequence, Tuple, Type

import numpy as np

from repro.api.artifact import ModelArtifact
from repro.api.session import ReleaseSession
from repro.api.spec import ReleaseSpec
from repro.core.agm import AgmSynthesizer
from repro.datasets.registry import load_dataset
from repro.graphs.attributed import AttributedGraph
from repro.metrics.distributions import hellinger_distance
from repro.metrics.evaluation import EvaluationReport, evaluate_synthetic_graph
from repro.metrics.incremental import cached_connection_probabilities
from repro.utils.rng import spawn_streams

#: Samples per contract in one ensemble.
ENSEMBLE_SIZE = 40

#: The ensemble's sample seeds.
SEEDS = tuple(range(ENSEMBLE_SIZE))

#: One-sided 95% quantile of Student's t with ``ENSEMBLE_SIZE - 1`` = 39
#: degrees of freedom.
T_CRITICAL = 1.685

#: The gated metrics, in column order; lower is better for each.
METRICS = tuple(f.name for f in fields(EvaluationReport)) \
    + ("private_theta_f_hellinger",)


@dataclass(frozen=True)
class MetricVerdict:
    """The gate's verdict on one metric."""

    metric: str
    mean_difference: float
    bound: float
    margin: float
    passed: bool

    def describe(self) -> str:
        """One line: the verdict, mean difference, upper bound and margin."""
        return (f"{'pass' if self.passed else 'FAIL'} {self.metric}: mean "
                f"difference {self.mean_difference:+.6g}, bound "
                f"{self.bound:+.6g}, margin {self.margin:.6g}")


def release_inputs(scale: float, backend: str
                   ) -> Tuple[AttributedGraph, ModelArtifact]:
    """The gate's input graph and the artifact fitted on it."""
    original = load_dataset("pokec", scale, seed=0)
    spec = ReleaseSpec(dataset="pokec", scale=scale, seed=0, epsilon=1.0,
                       backend=backend, num_iterations=2)
    artifact = ReleaseSession().fit(spec, graph=original)
    return original, artifact


def contract(synthesizer_type: Type[AgmSynthesizer],
             artifact: ModelArtifact) -> AgmSynthesizer:
    """A synthesizer of ``synthesizer_type`` with the artifact's knobs."""
    return synthesizer_type(artifact.parameters,
                            num_iterations=artifact.num_iterations)


def ensemble_metrics(synthesizer: AgmSynthesizer, original: AttributedGraph,
                     seeds: Iterable[int] = SEEDS) -> np.ndarray:
    """The ``(len(seeds), len(METRICS))`` metric matrix of one ensemble."""
    private = synthesizer.parameters.correlations.probabilities
    rows = []
    for seed in seeds:
        graph = synthesizer.sample(rng=spawn_streams(seed, 1)[0])
        report = evaluate_synthetic_graph(original, graph)
        rows.append([*report.as_dict().values(), hellinger_distance(
            cached_connection_probabilities(graph), private
        )])
    return np.asarray(rows, dtype=float)


def noninferiority(reference: np.ndarray, candidate: np.ndarray
                   ) -> List[MetricVerdict]:
    """Per-metric verdicts on paired ensembles (rows are the same seeds)."""
    reference = np.asarray(reference, dtype=float)
    candidate = np.asarray(candidate, dtype=float)
    expected = (ENSEMBLE_SIZE, len(METRICS))
    if reference.shape != expected or candidate.shape != expected:
        raise ValueError(
            f"ensembles must have shape {expected} (the t quantile is fixed "
            f"for {ENSEMBLE_SIZE} pairs), got {reference.shape} and "
            f"{candidate.shape}"
        )
    differences = candidate - reference
    means = differences.mean(axis=0)
    bounds = means + T_CRITICAL * differences.std(axis=0, ddof=1) \
        / math.sqrt(ENSEMBLE_SIZE)
    # A constant column's sd can come out a rounding error above zero.
    constant = np.all(reference == reference[0], axis=0)
    margins = np.where(constant, 0.0, reference.std(axis=0, ddof=1))
    verdicts = []
    for column, metric in enumerate(METRICS):
        if constant[column]:
            passed = bool(np.all(differences[:, column] == 0))
        else:
            passed = bool(bounds[column] <= margins[column])
        verdicts.append(MetricVerdict(metric, float(means[column]),
                                      float(bounds[column]),
                                      float(margins[column]), passed))
    return verdicts


def failures(verdicts: Sequence[MetricVerdict]) -> List[str]:
    """The metrics that failed."""
    return [verdict.metric for verdict in verdicts if not verdict.passed]


def report(verdicts: Sequence[MetricVerdict]) -> str:
    """Every metric's verdict, one per line."""
    return "\n".join(verdict.describe() for verdict in verdicts)
