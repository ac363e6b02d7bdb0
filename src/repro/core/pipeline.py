"""The staged synthesis engine: estimate → fit → generate → postprocess → evaluate.

Algorithm 3 is naturally a pipeline of independently budgeted stages; this
module makes the pipeline an explicit object rather than a call chain:

* every stage is a named, pluggable :class:`PipelineStage` (registered with
  :func:`register_stage`, so projects can insert custom stages — extra
  validation, alternative evaluation — without forking the engine);
* each stage draws randomness from its own generator, spawned from one root
  seed through :func:`repro.utils.rng.spawn_streams`, so inserting a stage
  or changing how much randomness one stage consumes cannot silently shift
  every downstream draw;
* the private stages charge the run's :class:`PrivacyAccountant`, and the
  finished run carries a serializable :class:`RunManifest` recording the
  budget split, the per-stage ε spends, the seed, the stage order and
  per-stage wall-clock timings — everything needed to audit or replay the
  release.

The Monte-Carlo experiment runner (:mod:`repro.experiments.runner`) executes
one pipeline per trial, serially or in parallel worker processes, and the
CLI's ``run`` command drives it from a JSON config file.
"""

from __future__ import annotations

import abc
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type, Union

from repro.core.agm import AgmParameters, AgmSynthesizer, learn_agm
from repro.core.agm_dp import BudgetSplit, learn_agm_dp
from repro.core.registry import get_backend
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

#: The default stage order of the synthesis engine.
DEFAULT_STAGES: Tuple[str, ...] = (
    "estimate", "fit", "generate", "postprocess", "evaluate",
)


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
            num_iterations=int(data.get("num_iterations", 1)),
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
# Stage protocol and registry
# ----------------------------------------------------------------------
class PipelineContext:
    """Mutable state threaded through the stages of one pipeline run."""

    def __init__(self, pipeline: "SynthesisPipeline", graph: AttributedGraph,
                 manifest: RunManifest) -> None:
        self.pipeline = pipeline
        self.graph = graph
        self.manifest = manifest
        self.streams: Dict[str, object] = {}
        self.truncation_k: Optional[int] = None
        self.budget_split: Optional[BudgetSplit] = None
        self.accountant: Optional[PrivacyAccountant] = None
        self.parameters: Optional[AgmParameters] = None
        self.graphs: List[AttributedGraph] = []
        self.reports: List[EvaluationReport] = []
        self.report: Optional[EvaluationReport] = None
        #: Scratch space for custom stages.
        self.extra: Dict[str, object] = {}

    def stream_for(self, stage: str):
        """The stage's own random generator (spawned from the root seed)."""
        return self.streams[stage]


class PipelineStage(abc.ABC):
    """One named stage of the synthesis engine.

    Stages are stateless: all run state lives in the
    :class:`PipelineContext`, so one stage instance can serve many runs.
    """

    #: Registry key and manifest label of the stage.
    name: str = ""

    @abc.abstractmethod
    def run(self, context: PipelineContext) -> None:
        """Execute the stage, reading and mutating ``context``."""


_STAGES: Dict[str, Type[PipelineStage]] = {}


def register_stage(cls: Type[PipelineStage]) -> Type[PipelineStage]:
    """Class decorator registering a :class:`PipelineStage` under its name.

    Registering a name again *replaces* the previous implementation — that
    is the supported way to swap a default stage for a custom one.
    """
    if not issubclass(cls, PipelineStage):
        raise TypeError(
            f"@register_stage expects a PipelineStage subclass, got {cls!r}"
        )
    if not cls.name:
        raise ValueError(f"{cls.__name__} must define a non-empty 'name'")
    _STAGES[cls.name] = cls
    return cls


def get_stage(name: str) -> Type[PipelineStage]:
    """Look up a registered stage class by name."""
    try:
        return _STAGES[name]
    except KeyError:
        raise ValueError(
            f"unknown pipeline stage {name!r}; registered: {tuple(_STAGES)}"
        ) from None


def stage_names() -> Tuple[str, ...]:
    """Names of all registered stages."""
    return tuple(_STAGES)


# ----------------------------------------------------------------------
# Default stages
# ----------------------------------------------------------------------
@register_stage
class EstimateStage(PipelineStage):
    """Resolve data-independent estimates and open the privacy account.

    Derives the truncation parameter ``k`` (the ``n^(1/3)`` heuristic unless
    pinned), resolves the budget split for the backend, and creates the
    run's :class:`PrivacyAccountant` for private runs.  Everything here is
    either public (``n``) or configuration, so no budget is spent.
    """

    name = "estimate"

    def run(self, context: PipelineContext) -> None:
        pipeline = context.pipeline
        context.truncation_k = (
            pipeline.truncation_k
            if pipeline.truncation_k is not None
            else default_truncation_parameter(context.graph.num_nodes)
        )
        context.manifest.truncation_k = context.truncation_k
        if pipeline.is_private:
            split = pipeline.budget_split or BudgetSplit.default_for(pipeline.backend)
            context.budget_split = split
            context.accountant = PrivacyAccountant(pipeline.epsilon)
            context.manifest.splits = {
                **split.weights(),
                "structural_degree_fraction": split.structural_degree_fraction,
            }


@register_stage
class FitStage(PipelineStage):
    """Learn the three AGM parameter sets, exactly or under ε-DP."""

    name = "fit"

    def run(self, context: PipelineContext) -> None:
        pipeline = context.pipeline
        if pipeline.parameters is not None:
            # Prefit (exact) parameters injected by the caller — nothing to
            # learn, and no budget is spent.
            context.parameters = pipeline.parameters
        elif pipeline.is_private:
            context.parameters, _ = learn_agm_dp(
                context.graph,
                pipeline.epsilon,
                backend=pipeline.backend,
                truncation_k=context.truncation_k,
                budget_split=context.budget_split,
                rng=context.stream_for(self.name),
                accountant=context.accountant,
            )
        else:
            context.parameters = learn_agm(context.graph, backend=pipeline.backend)


@register_stage
class GenerateStage(PipelineStage):
    """Sample synthetic graphs from the fitted parameters (post-processing)."""

    name = "generate"

    def run(self, context: PipelineContext) -> None:
        pipeline = context.pipeline
        if context.parameters is None:
            raise RuntimeError("the generate stage requires fitted parameters")
        synthesizer = AgmSynthesizer(
            context.parameters,
            num_iterations=pipeline.num_iterations,
            handle_orphans=pipeline.handle_orphans,
            rewire_equivalence=getattr(
                pipeline, "rewire_equivalence", "exact"
            ),
            memory_budget_mb=getattr(pipeline, "memory_budget_mb", None),
        )
        stream = context.stream_for(self.name)
        context.graphs = [
            synthesizer.sample(rng=stream) for _ in range(pipeline.samples)
        ]


@register_stage
class PostprocessStage(PipelineStage):
    """Apply configured post-processing hooks to every sampled graph.

    Post-processing never touches the sensitive input graph, so arbitrary
    hooks are privacy-free (Section 2.3).  The default pipeline has no
    hooks; pass ``postprocessors=(hook, ...)`` to the pipeline to add them.
    """

    name = "postprocess"

    def run(self, context: PipelineContext) -> None:
        hooks = context.pipeline.postprocessors
        if not hooks:
            return
        stream = context.stream_for(self.name)
        for hook in hooks:
            context.graphs = [hook(graph, stream) for graph in context.graphs]


@register_stage
class EvaluateStage(PipelineStage):
    """Score every sample against the input graph (Tables 2-5 metrics)."""

    name = "evaluate"

    def run(self, context: PipelineContext) -> None:
        if not context.pipeline.evaluate:
            return
        from repro.metrics.incremental import prepare_original_graph

        # Prime the input side once (idempotent across trials sharing the
        # graph object): every report below then reads the original's
        # triangle census and Θ_F probabilities from its statistics memo.
        prepare_original_graph(context.graph)
        context.reports = [
            evaluate_synthetic_graph(context.graph, synthetic)
            for synthetic in context.graphs
        ]
        if context.reports:
            context.report = average_reports(context.reports)


# ----------------------------------------------------------------------
# The pipeline
# ----------------------------------------------------------------------
#: Post-processing hook signature: ``(graph, rng) -> graph``.
PostprocessHook = Callable[[AttributedGraph, object], AttributedGraph]


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


class SynthesisPipeline:
    """The staged AGM(-DP) synthesis engine.

    Parameters
    ----------
    epsilon:
        Global privacy budget ε, or ``None`` for the non-private baseline.
    backend:
        A registered structural backend name.
    truncation_k:
        Truncation parameter for Θ_F (``None``: the ``n^(1/3)`` heuristic).
    budget_split:
        Optional custom :class:`BudgetSplit` for private runs.
    num_iterations:
        Acceptance-refinement rounds used when sampling.
    handle_orphans:
        Forwarded to the structural backend's model builder.
    rewire_equivalence:
        Rewiring equivalence contract forwarded to the structural backend
        (``"exact"`` or ``"distributional"``); backends without a rewiring
        phase ignore it.
    memory_budget_mb:
        Optional generation memory budget in MiB, forwarded to the
        structural backend through the generate stage.  Over-budget stages
        raise :class:`~repro.utils.memory.MemoryBudgetError`
        (``over_memory``).
    samples:
        Number of synthetic graphs the generate stage produces per run.
    evaluate:
        Whether the evaluate stage computes :class:`EvaluationReport`s.
    stages:
        Optional custom stage order — a sequence of registered stage names
        and/or :class:`PipelineStage` instances.  Defaults to
        :data:`DEFAULT_STAGES`.
    postprocessors:
        Post-processing hooks ``(graph, rng) -> graph`` applied to every
        sample by the postprocess stage.
    parameters:
        Optional prefit :class:`AgmParameters`; the fit stage adopts them
        instead of learning.  Only meaningful for non-private runs (the DP
        guarantee requires the fit to happen inside the accounted run), so
        combining this with ``epsilon`` raises.

    Examples
    --------
    >>> pipeline = SynthesisPipeline(epsilon=1.0, backend="tricycle")
    >>> result = pipeline.run(graph, rng=0)           # doctest: +SKIP
    >>> result.manifest.spends                        # doctest: +SKIP
    {'attributes': 0.25, 'correlations': 0.25,
     'structural.degrees': 0.25, 'structural.triangles': 0.25}
    """

    def __init__(self, epsilon: Optional[float] = None,
                 backend: str = "tricycle", *,
                 truncation_k: Optional[int] = None,
                 budget_split: Optional[BudgetSplit] = None,
                 num_iterations: int = 3,
                 handle_orphans: bool = True,
                 rewire_equivalence: str = "exact",
                 memory_budget_mb: Optional[int] = None,
                 samples: int = 1,
                 evaluate: bool = True,
                 stages: Optional[Sequence[Union[str, PipelineStage]]] = None,
                 postprocessors: Sequence[PostprocessHook] = (),
                 parameters: Optional[AgmParameters] = None) -> None:
        self.epsilon = None if epsilon is None else check_epsilon(epsilon)
        get_backend(backend)  # raises ValueError for unregistered names
        self.backend = backend
        if parameters is not None:
            if self.epsilon is not None:
                raise ValueError(
                    "prefit parameters cannot be combined with a privacy "
                    "budget: the DP fit must happen inside the accounted run"
                )
            if parameters.backend != backend:
                raise ValueError(
                    f"prefit parameters are for backend "
                    f"{parameters.backend!r}, pipeline uses {backend!r}"
                )
        self.parameters = parameters
        self.truncation_k = truncation_k
        self.budget_split = budget_split
        if num_iterations < 1:
            raise ValueError(f"num_iterations must be >= 1, got {num_iterations}")
        self.num_iterations = int(num_iterations)
        self.handle_orphans = bool(handle_orphans)
        self.rewire_equivalence = str(rewire_equivalence)
        if memory_budget_mb is not None:
            memory_budget_mb = int(memory_budget_mb)
            if memory_budget_mb < 1:
                raise ValueError(
                    f"memory_budget_mb must be >= 1, got {memory_budget_mb}"
                )
        self.memory_budget_mb = memory_budget_mb
        if samples < 1:
            raise ValueError(f"samples must be >= 1, got {samples}")
        self.samples = int(samples)
        self.evaluate = bool(evaluate)
        self.postprocessors = tuple(postprocessors)
        self._stages = self._resolve_stages(
            DEFAULT_STAGES if stages is None else stages
        )

    @staticmethod
    def _resolve_stages(stages: Sequence[Union[str, PipelineStage]]
                        ) -> Tuple[PipelineStage, ...]:
        resolved: List[PipelineStage] = []
        for stage in stages:
            if isinstance(stage, PipelineStage):
                resolved.append(stage)
            else:
                resolved.append(get_stage(stage)())
        if not resolved:
            raise ValueError("a pipeline needs at least one stage")
        names = [stage.name for stage in resolved]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate stage names in {names}")
        return tuple(resolved)

    @property
    def is_private(self) -> bool:
        """Whether the pipeline runs the DP learners."""
        return self.epsilon is not None

    def stage_order(self) -> Tuple[str, ...]:
        """The names of the configured stages, in execution order."""
        return tuple(stage.name for stage in self._stages)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, graph: AttributedGraph, rng: SeedLike = None,
            checkpoint: Optional[Callable[[], None]] = None) -> PipelineResult:
        """Execute the stages on ``graph`` and return the collected result.

        ``rng`` is the *root* seed: every stage receives its own independent
        generator spawned from it, so a run is reproducible from
        ``(graph, configuration, rng)`` alone and stages cannot perturb each
        other's streams.

        ``checkpoint`` is an optional cooperative-cancellation hook called
        before every stage (and once after the last): a caller enforcing a
        deadline passes a callable that raises when the request's time is up,
        so an abandoned run stops at the next stage boundary instead of
        holding a worker to completion.  Stage boundaries also carry
        ``pipeline.stage.<name>.start`` / ``.end`` fault points for the
        crash-recovery tests.
        """
        manifest = RunManifest(
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
            stages=list(self.stage_order()),
        )
        context = PipelineContext(self, graph, manifest)
        streams = spawn_streams(rng, len(self._stages))
        context.streams = {
            stage.name: stream for stage, stream in zip(self._stages, streams)
        }

        for stage in self._stages:
            if checkpoint is not None:
                checkpoint()
            fire(f"pipeline.stage.{stage.name}.start")
            start = time.perf_counter()
            stage.run(context)
            manifest.timings[stage.name] = time.perf_counter() - start
            fire(f"pipeline.stage.{stage.name}.end")
        if checkpoint is not None:
            checkpoint()

        if context.accountant is not None:
            manifest.allocations = context.accountant.allocations()
            manifest.spends = context.accountant.breakdown()
        if context.parameters is None:
            raise RuntimeError(
                "the pipeline finished without fitted parameters; "
                f"stage order {self.stage_order()} is missing a fit stage"
            )
        return PipelineResult(
            graphs=context.graphs,
            parameters=context.parameters,
            manifest=manifest,
            accountant=context.accountant,
            reports=context.reports,
            report=context.report,
        )


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
