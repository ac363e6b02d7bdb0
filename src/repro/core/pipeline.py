"""The synthesis engine: Algorithm 3 as one fixed sequence of stages.

:meth:`SynthesisPipeline.run` executes estimate → fit → generate → evaluate:

* **estimate** derives the truncation parameter ``k`` and, for private
  runs, resolves the budget split and opens the run's
  :class:`PrivacyAccountant` — public data and configuration only, so no
  budget is spent;
* **fit** learns Θ_X, Θ_F and Θ_M, exactly or under ε-DP, charging the
  accountant;
* **generate** samples synthetic graphs from the fitted parameters, which
  is post-processing and free of ε (Theorem 2);
* **evaluate** scores every sample against the input graph (the Tables 2-5
  metrics).

:meth:`SynthesisPipeline.fit` runs estimate → fit only, the one-time
learning step of a release.  Stage ``i`` draws from child ``i`` of the root
seed (:func:`repro.utils.rng.spawn_streams`): fit from child 1 and generate
from child 2, while estimate and evaluate draw nothing.  So ``fit`` and
``run`` learn the same parameters from the same seed, and how much
randomness one stage consumes cannot shift another's draws.  The finished
run carries a serializable :class:`RunManifest` recording the budget
split, the per-stage ε spends, the seed, the stages run and their
wall-clock timings — everything needed to audit or replay the release.

A pipeline is a frozen value: :meth:`repro.api.ReleaseSpec.pipeline` builds
the one a release spec describes, and the Monte-Carlo experiment runner
(:mod:`repro.experiments.runner`) runs the pipeline it is handed once per
trial, serially or in parallel worker processes.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import KW_ONLY, dataclass, field
from typing import (
    Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union,
)

from repro.core.agm import (
    DEFAULT_NUM_ITERATIONS,
    AgmParameters,
    AgmSynthesizer,
    learn_agm,
)
from repro.core import backends
from repro.core.agm_dp import DEFAULT_BUDGET_SPLIT, BudgetSplit, learn_agm_dp
from repro.graphs.attributed import AttributedGraph
from repro.graphs.truncation import default_truncation_parameter
from repro.metrics.evaluation import (
    EvaluationReport,
    average_reports,
    evaluate_synthetic_graph,
)
from repro.privacy.accountant import PrivacyAccountant
from repro.testing.faults import fire
from repro.utils.rng import SeedLike, spawn_streams
from repro.utils.validation import check_epsilon

#: The stages of a full run, in execution order; :meth:`SynthesisPipeline.fit`
#: runs the first two.
DEFAULT_STAGES: Tuple[str, ...] = ("estimate", "fit", "generate", "evaluate")


# ----------------------------------------------------------------------
# Run manifest
# ----------------------------------------------------------------------
@dataclass
class RunManifest:
    """Serializable record of one pipeline run.

    Captures what a privacy audit or a replay needs: the backend and global
    ε, the budget split and the per-stage ε spends from the accountant's
    ledger, the root seed, the stage order and per-stage timings.
    """

    backend: str
    epsilon: Optional[float]
    private: bool
    num_nodes: int
    num_edges: int
    num_attributes: int
    truncation_k: Optional[int]
    num_iterations: int
    samples: int
    seed: Optional[Union[int, str]]
    stages: List[str] = field(default_factory=list)
    splits: Dict[str, float] = field(default_factory=dict)
    allocations: Dict[str, float] = field(default_factory=dict)
    spends: Dict[str, float] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def total_spent(self) -> float:
        """Total ε spent across all recorded stages."""
        return float(sum(self.spends.values()))

    def to_dict(self) -> Dict[str, object]:
        """Return the manifest as a plain JSON-serializable dictionary."""
        return {
            "backend": self.backend,
            "epsilon": self.epsilon,
            "private": self.private,
            "graph": {
                "num_nodes": self.num_nodes,
                "num_edges": self.num_edges,
                "num_attributes": self.num_attributes,
            },
            "truncation_k": self.truncation_k,
            "num_iterations": self.num_iterations,
            "samples": self.samples,
            "seed": self.seed,
            "stages": list(self.stages),
            "splits": dict(self.splits),
            "allocations": dict(self.allocations),
            "spends": dict(self.spends),
            "total_spent": self.total_spent,
            "timings": dict(self.timings),
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunManifest":
        """Rebuild a manifest from :meth:`to_dict` output (round-trip).

        Used by :class:`repro.api.ModelArtifact` to re-materialise the fit
        manifest persisted inside an artifact document.  Unknown extra keys
        are ignored; the nested ``graph`` block is flattened back.
        """
        graph = data.get("graph") or {}
        return cls(
            backend=str(data.get("backend", "")),
            epsilon=data.get("epsilon"),
            private=bool(data.get("private", False)),
            num_nodes=int(graph.get("num_nodes", 0)),
            num_edges=int(graph.get("num_edges", 0)),
            num_attributes=int(graph.get("num_attributes", 0)),
            truncation_k=data.get("truncation_k"),
            num_iterations=int(data.get("num_iterations",
                                        DEFAULT_NUM_ITERATIONS)),
            samples=int(data.get("samples", 1)),
            seed=data.get("seed"),
            stages=list(data.get("stages", [])),
            splits=dict(data.get("splits", {})),
            allocations=dict(data.get("allocations", {})),
            spends=dict(data.get("spends", {})),
            timings=dict(data.get("timings", {})),
            extra=dict(data.get("extra", {})),
        )

    def to_json(self, indent: int = 2) -> str:
        """Render the manifest as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, default=str)

    def save(self, path) -> None:
        """Write the manifest to ``path`` as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")


# ----------------------------------------------------------------------
# The pipeline
# ----------------------------------------------------------------------
@dataclass
class PipelineResult:
    """Everything a finished pipeline run produced."""

    graphs: List[AttributedGraph]
    parameters: AgmParameters
    manifest: RunManifest
    accountant: Optional[PrivacyAccountant] = None
    reports: List[EvaluationReport] = field(default_factory=list)
    report: Optional[EvaluationReport] = None

    @property
    def graph(self) -> AttributedGraph:
        """The first (often only) sampled graph."""
        return self.graphs[0]


@dataclass(frozen=True, eq=False)
class SynthesisPipeline:
    """The AGM(-DP) synthesis engine: estimate → fit → generate → evaluate.

    Parameters
    ----------
    epsilon:
        Global privacy budget ε, or ``None`` for the non-private baseline.
    backend:
        A structural backend, one of :data:`repro.core.backends.BACKENDS`.
    truncation_k:
        Truncation parameter for Θ_F (``None``: the ``n^(1/3)`` heuristic).
    budget_split:
        Optional custom :class:`BudgetSplit` for private runs (``None``:
        the paper's split).
    num_iterations:
        Acceptance-refinement rounds used when sampling, one generation
        each.
    handle_orphans:
        Forwarded to the structural backend's model builder.
    memory_budget_mb:
        Optional generation memory budget in MiB, forwarded to the
        structural backend by the generate stage.  Over-budget generation
        raises :class:`~repro.utils.memory.MemoryBudgetError`
        (``over_memory``).
    samples:
        Number of synthetic graphs the generate stage produces per run.
    parameters:
        Optional prefit :class:`AgmParameters`; the fit stage adopts them
        instead of learning.  Only meaningful for non-private runs (the DP
        guarantee requires the fit to happen inside the accounted run), so
        combining this with ``epsilon`` raises.

    Every field after ``backend`` is keyword-only.  The pipeline is
    immutable; :func:`dataclasses.replace` derives a variant, validated
    like a new one.

    Examples
    --------
    >>> pipeline = SynthesisPipeline(epsilon=1.0, backend="tricycle")
    >>> result = pipeline.run(graph, rng=0)           # doctest: +SKIP
    >>> result.manifest.spends                        # doctest: +SKIP
    {'attributes': 0.25, 'correlations': 0.25,
     'structural.degrees': 0.25, 'structural.triangles': 0.25}
    """

    epsilon: Optional[float] = None
    backend: str = "tricycle"
    _: KW_ONLY
    truncation_k: Optional[int] = None
    budget_split: Optional[BudgetSplit] = None
    num_iterations: int = DEFAULT_NUM_ITERATIONS
    handle_orphans: bool = True
    memory_budget_mb: Optional[int] = None
    samples: int = 1
    parameters: Optional[AgmParameters] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        def put(name: str, value) -> None:
            object.__setattr__(self, name, value)

        if self.epsilon is not None:
            put("epsilon", check_epsilon(self.epsilon))
        backends.check(self.backend)
        if self.parameters is not None:
            if self.epsilon is not None:
                raise ValueError(
                    "prefit parameters cannot be combined with a privacy "
                    "budget: the DP fit must happen inside the accounted run"
                )
            if self.parameters.backend != self.backend:
                raise ValueError(
                    f"prefit parameters are for backend "
                    f"{self.parameters.backend!r}, pipeline uses "
                    f"{self.backend!r}"
                )
        if self.num_iterations < 1:
            raise ValueError(
                f"num_iterations must be >= 1, got {self.num_iterations}"
            )
        put("num_iterations", int(self.num_iterations))
        put("handle_orphans", bool(self.handle_orphans))
        if self.memory_budget_mb is not None:
            put("memory_budget_mb", int(self.memory_budget_mb))
            if self.memory_budget_mb < 1:
                raise ValueError(
                    f"memory_budget_mb must be >= 1, got "
                    f"{self.memory_budget_mb}"
                )
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        put("samples", int(self.samples))

    @property
    def is_private(self) -> bool:
        """Whether the pipeline runs the DP learners."""
        return self.epsilon is not None

    @property
    def label(self) -> str:
        """The paper's model name: ``AGMDP-TriCL``, ``AGM-FCL``, ..."""
        prefix = "AGMDP" if self.is_private else "AGM"
        return f"{prefix}-{backends.label(self.backend)}"

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, graph: AttributedGraph, rng: SeedLike = None,
            checkpoint: Optional[Callable[[], None]] = None) -> PipelineResult:
        """Run every stage on ``graph`` and return the collected result.

        ``rng`` is the *root* seed: each stage draws from its own generator
        spawned from it, so a run is reproducible from
        ``(graph, configuration, rng)`` alone.

        ``checkpoint`` is an optional cooperative-cancellation hook called
        before every stage (and once after the last): a caller enforcing a
        deadline passes a callable that raises when the request's time is up,
        so an abandoned run stops at the next stage boundary instead of
        holding a worker to completion.  Stage boundaries also carry
        ``pipeline.stage.<name>.start`` / ``.end`` fault points for the
        crash-recovery tests.
        """
        manifest = self._manifest(graph, rng, DEFAULT_STAGES)
        _, fit_rng, generate_rng, _ = spawn_streams(rng, len(DEFAULT_STAGES))
        parameters, accountant = self._learn(graph, fit_rng, manifest,
                                             checkpoint)
        with self._stage("generate", manifest, checkpoint):
            synthesizer = AgmSynthesizer(
                parameters,
                num_iterations=self.num_iterations,
                handle_orphans=self.handle_orphans,
                memory_budget_mb=self.memory_budget_mb,
            )
            graphs = [synthesizer.sample(rng=generate_rng)
                      for _ in range(self.samples)]
        with self._stage("evaluate", manifest, checkpoint):
            from repro.metrics.incremental import prepare_original_graph

            # Prime the input side once (idempotent across trials sharing the
            # graph object): every report below then reads the original's
            # triangle census and Θ_F probabilities from its statistics memo.
            prepare_original_graph(graph)
            reports = [evaluate_synthetic_graph(graph, synthetic)
                       for synthetic in graphs]
        if checkpoint is not None:
            checkpoint()
        return PipelineResult(
            graphs=graphs,
            parameters=parameters,
            manifest=manifest,
            accountant=accountant,
            reports=reports,
            report=average_reports(reports),
        )

    def fit(self, graph: AttributedGraph, rng: SeedLike = None,
            checkpoint: Optional[Callable[[], None]] = None) -> PipelineResult:
        """Run estimate → fit only: learn the parameters, sample nothing.

        The parameters, spends and manifest fields equal those of
        :meth:`run` at the same root seed, except the stages listed and
        their timings.  The result carries no graphs and no reports.
        ``checkpoint`` and the fault points behave as in :meth:`run`.
        """
        manifest = self._manifest(graph, rng, DEFAULT_STAGES[:2])
        _, fit_rng = spawn_streams(rng, 2)
        parameters, accountant = self._learn(graph, fit_rng, manifest,
                                             checkpoint)
        if checkpoint is not None:
            checkpoint()
        return PipelineResult(graphs=[], parameters=parameters,
                              manifest=manifest, accountant=accountant)

    def _manifest(self, graph: AttributedGraph, rng: SeedLike,
                  stages: Sequence[str]) -> RunManifest:
        return RunManifest(
            backend=self.backend,
            epsilon=self.epsilon,
            private=self.is_private,
            num_nodes=graph.num_nodes,
            num_edges=graph.num_edges,
            num_attributes=graph.num_attributes,
            truncation_k=self.truncation_k,
            num_iterations=self.num_iterations,
            samples=self.samples,
            seed=_describe_seed(rng),
            stages=list(stages),
        )

    @staticmethod
    @contextmanager
    def _stage(name: str, manifest: RunManifest,
               checkpoint: Optional[Callable[[], None]]) -> Iterator[None]:
        """One stage boundary: checkpoint, fault points and timing."""
        if checkpoint is not None:
            checkpoint()
        fire(f"pipeline.stage.{name}.start")
        start = time.perf_counter()
        yield
        manifest.timings[name] = time.perf_counter() - start
        fire(f"pipeline.stage.{name}.end")

    def _learn(self, graph: AttributedGraph, rng, manifest: RunManifest,
               checkpoint: Optional[Callable[[], None]]
               ) -> Tuple[AgmParameters, Optional[PrivacyAccountant]]:
        """The estimate and fit stages: ``(parameters, accountant)``."""
        with self._stage("estimate", manifest, checkpoint):
            truncation_k = (
                self.truncation_k if self.truncation_k is not None
                else default_truncation_parameter(graph.num_nodes)
            )
            manifest.truncation_k = truncation_k
            split = accountant = None
            if self.is_private:
                split = self.budget_split or DEFAULT_BUDGET_SPLIT
                accountant = PrivacyAccountant(self.epsilon)
                manifest.splits = {
                    **split.weights(),
                    "structural_degree_fraction":
                        split.structural_degree_fraction,
                }
        with self._stage("fit", manifest, checkpoint):
            if self.parameters is not None:
                # Prefit (exact) parameters injected by the caller: nothing
                # to learn, and no budget is spent.
                parameters = self.parameters
            elif self.is_private:
                parameters, _ = learn_agm_dp(
                    graph,
                    self.epsilon,
                    backend=self.backend,
                    truncation_k=truncation_k,
                    budget_split=split,
                    rng=rng,
                    accountant=accountant,
                )
            else:
                parameters = learn_agm(graph, backend=self.backend)
        if accountant is not None:
            manifest.allocations = accountant.allocations()
            manifest.spends = accountant.breakdown()
        return parameters, accountant


def _describe_seed(rng: SeedLike) -> Optional[Union[int, str]]:
    """A manifest-friendly description of the root seed."""
    if rng is None:
        return None
    if isinstance(rng, (int,)):
        return int(rng)
    try:
        import numpy as np

        if isinstance(rng, np.integer):
            return int(rng)
        if isinstance(rng, np.random.SeedSequence):
            entropy = rng.entropy
            return int(entropy) if isinstance(entropy, int) else str(entropy)
    except Exception:  # pragma: no cover - defensive
        pass
    return type(rng).__name__
