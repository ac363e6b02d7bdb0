"""Span recording around the library's layer boundaries, from outside it.

The benchmark does not edit the library to trace it.  Instead a
:class:`Tracer` replaces a public function (or method) with a wrapper that
records one span per call: wall time, and *self* time — the wall time minus
the part covered by traced calls made inside it on the same thread.  Spans
nest through a per-thread stack, so a layer's self time never counts its
children twice, and the self times of all layers under one call add up to
that call's wall time.

:func:`install_layers` wraps every layer boundary the benchmark reports
(see ``perfbench/README.md`` for the map); :func:`per_layer` turns the raw
span totals into the named per-layer metrics.  The same code runs in the
benchmark process (release workloads) and inside the served daemon, via
``perfbench/launcher.py``.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Union


class Frame:
    """One open span: its name, the time its traced children took, and
    how many children of each name it has seen."""

    __slots__ = ("name", "args", "opaque", "child", "children", "elapsed")

    def __init__(self, name: str, args: tuple, opaque: bool = False) -> None:
        self.name = name
        self.args = args
        self.opaque = opaque
        self.child = 0.0
        self.children: Dict[str, int] = defaultdict(int)
        self.elapsed = 0.0


Hook = Callable[["Tracer", Frame, tuple, Any, Optional[BaseException]], None]


class Tracer:
    """Records spans for wrapped callables; thread-safe, in memory."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._installed: List[tuple] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.wall: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.counters: Dict[str, float] = defaultdict(float)

    def _stack(self) -> List[Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Frame]:
        """The innermost open span on the calling thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    def wrap(self, owner: Any, attr: str,
             name: Union[str, Callable[["Tracer"], str]],
             before: Optional[Callable[["Tracer", tuple], None]] = None,
             after: Optional[Hook] = None, opaque: bool = False) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` may be a callable resolving the span name at call time
        (from the enclosing span).  ``before`` runs ahead of the call and
        ``after`` once it returned or raised; both run inside the enclosing
        span but outside this one.  Inside an ``opaque`` span no other
        span is recorded: its work is all its own.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            if stack and stack[-1].opaque:
                return original(*args, **kwargs)
            span = name(tracer) if callable(name) else name
            if before is not None:
                before(tracer, args)
            frame = Frame(span, args, opaque)
            stack.append(frame)
            error: Optional[BaseException] = None
            result = None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                frame.elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1].child += frame.elapsed
                    stack[-1].children[span] += 1
                with tracer._lock:
                    tracer.calls[span] += 1
                    tracer.wall[span] += frame.elapsed
                    tracer.self_time[span] += frame.elapsed - frame.child
                if after is not None:
                    after(tracer, frame, args, result, error)

        setattr(owner, attr, functools.wraps(original)(traced))
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped callable, newest first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Plain-dict copy of the totals (JSON-ready, picklable)."""
        with self._lock:
            return {
                "calls": dict(self.calls),
                "wall": dict(self.wall),
                "self": dict(self.self_time),
                "counters": dict(self.counters),
            }


# ----------------------------------------------------------------------
# The layer map
# ----------------------------------------------------------------------
REPAIR_SEED = "models.postprocess.seed"
REPAIR_FINAL = "models.postprocess.final"
#: Spans of one structural ``generate`` call made directly by the AGM loop.
STRUCTURAL_SPANS = ("models.tricycle.rewire", "models.chung_lu")
#: Refusal codes of the service's admission guards.
REFUSAL_CODES = ("overloaded", "over_rate", "draining")


def _repair_name(tracer: Tracer) -> str:
    """TriCycLe repairs twice per generate: the seed graph, then the output."""
    parent = tracer.current()
    if parent is not None and parent.children.get(REPAIR_SEED, 0):
        return REPAIR_FINAL
    return REPAIR_SEED


def _orphans(graph: Any, desired: Any) -> int:
    """Nodes the target degree sequence wants connected that have no edge."""
    import numpy as np

    return int(np.count_nonzero((graph.degrees() == 0)
                                & (np.asarray(desired) > 0)))


def _repair_before(tracer: Tracer, args: tuple) -> None:
    tracer.count("models.postprocess.orphans_in", _orphans(args[0], args[1]))


def _repair_after(tracer: Tracer, frame: Frame, args: tuple, result: Any,
                  error: Optional[BaseException]) -> None:
    if error is None:
        tracer.count("models.postprocess.orphans_out",
                     _orphans(result, args[1]))


def _chung_lu_after(tracer: Tracer, frame: Frame, args: tuple, result: Any,
                    error: Optional[BaseException]) -> None:
    if error is None:
        tracer.count("models.chung_lu.edges", result.num_edges)


def _triangles_after(tracer: Tracer, frame: Frame, args: tuple, result: Any,
                     error: Optional[BaseException]) -> None:
    parent = tracer.current()
    if error is None and parent is not None \
            and parent.name == "models.tricycle.rewire":
        model = parent.args[0]
        tracer.count("models.tricycle.tau_gap", model.num_triangles - result)
        tracer.count("models.tricycle.tau_samples")


def _agm_after(tracer: Tracer, frame: Frame, args: tuple, result: Any,
               error: Optional[BaseException]) -> None:
    tracer.count("core.agm.generations",
                 sum(frame.children.get(span, 0) for span in STRUCTURAL_SPANS))


def _fit_cached_after(tracer: Tracer, frame: Frame, args: tuple, result: Any,
                      error: Optional[BaseException]) -> None:
    if error is not None:
        return
    if result[1]:
        tracer.count("api.session.fit_hits")
    else:
        tracer.count("api.session.fit_misses")
        tracer.count("api.session.fit_miss_wall", frame.elapsed)


def _execute_after(tracer: Tracer, frame: Frame, args: tuple, result: Any,
                   error: Optional[BaseException]) -> None:
    if getattr(error, "code", None) in REFUSAL_CODES:
        tracer.count("service.refused")


def _block_after(tracer: Tracer, frame: Frame, args: tuple, result: Any,
                 error: Optional[BaseException]) -> None:
    if error is None:
        tracer.count("graphs.codec.bytes", len(result))


def install_layers(tracer: Tracer) -> Tracer:
    """Wrap every layer boundary the benchmark reports; returns ``tracer``.

    Module-level functions are wrapped at the name their caller looks them
    up by (``agm_dp``'s imports, ``params.structural``'s imports, the
    TriCycLe module's imports), so only the calls on the release path are
    counted.
    """
    import repro.api.spec as spec_module
    import repro.core.agm as agm
    import repro.core.agm_dp as agm_dp
    import repro.datasets.registry as registry
    import repro.metrics.incremental as incremental
    import repro.models.tricycle as tricycle
    import repro.params.structural as structural
    from repro.api.session import ReleaseSession
    from repro.api.store import ArtifactStore
    from repro.graphs import codec
    from repro.models.chung_lu import ChungLuModel
    from repro.params.attribute_distribution import AttributeDistribution
    from repro.privacy.ledger import EpsilonLedger, LedgerTransaction
    from repro.service.server import ReleaseServer

    wrap = tracer.wrap
    # The registry's generators run TriCycLe themselves: keep their model
    # work out of the model layers.
    wrap(registry, "load_dataset", "datasets.load", opaque=True)
    wrap(spec_module, "load_dataset", "datasets.load", opaque=True)
    wrap(incremental, "prepare_original_graph", "metrics.prepare")
    wrap(agm_dp, "learn_attributes_dp", "params.attributes")
    wrap(agm_dp, "learn_correlations_dp", "params.correlations")
    wrap(structural, "private_degree_sequence", "params.degrees")
    wrap(structural, "ladder_triangle_count", "params.triangles")
    wrap(AttributeDistribution, "sample_attribute_matrix",
         "core.agm.attribute_draw")
    wrap(agm, "observed_correlations", "core.agm.observed")
    wrap(agm, "compute_acceptance_probabilities", "core.agm.acceptance")
    wrap(agm.AgmSynthesizer, "sample", "core.agm.sample", after=_agm_after)
    wrap(ChungLuModel, "generate", "models.chung_lu", after=_chung_lu_after)
    wrap(tricycle.TriCycLeModel, "generate", "models.tricycle.rewire")
    wrap(tricycle, "post_process_graph", _repair_name,
         before=_repair_before, after=_repair_after)
    wrap(tricycle, "triangle_count", "models.tricycle.triangles",
         after=_triangles_after)
    wrap(ReleaseServer, "execute", "service.execute", after=_execute_after)
    wrap(codec, "encode_response", "graphs.codec.encode")
    wrap(codec, "encode_graph_block", "graphs.codec.block",
         after=_block_after)
    wrap(ReleaseSession, "fit_cached", "api.session.fit_cached",
         after=_fit_cached_after)
    wrap(EpsilonLedger, "reserve", "privacy.ledger.reserve")
    wrap(LedgerTransaction, "commit", "privacy.ledger.commit")
    wrap(ArtifactStore, "put", "api.store.put")
    wrap(ArtifactStore, "get", "api.store.get")
    return tracer


#: Layers whose self times make up one AGM sample, in pipeline order.
SAMPLE_LAYERS = (
    ("core.agm.attribute_draw_s", "core.agm.attribute_draw"),
    ("models.chung_lu_s", "models.chung_lu"),
    ("models.postprocess.seed_s", REPAIR_SEED),
    ("models.tricycle.rewire_s", "models.tricycle.rewire"),
    ("models.tricycle.triangles_s", "models.tricycle.triangles"),
    ("models.postprocess.final_s", REPAIR_FINAL),
    ("core.agm.observed_s", "core.agm.observed"),
    ("core.agm.acceptance_s", "core.agm.acceptance"),
    ("core.agm.self_s", "core.agm.sample"),
)

#: Layers reported as the mean wall time of one call.
PER_CALL_LAYERS = (
    ("datasets.load_s", "datasets.load"),
    ("metrics.prepare_s", "metrics.prepare"),
    ("params.attributes_s", "params.attributes"),
    ("params.correlations_s", "params.correlations"),
    ("params.degrees_s", "params.degrees"),
    ("params.triangles_s", "params.triangles"),
    ("service.execute_s", "service.execute"),
    ("graphs.codec.encode_s", "graphs.codec.encode"),
    ("privacy.ledger.reserve_s", "privacy.ledger.reserve"),
    ("privacy.ledger.commit_s", "privacy.ledger.commit"),
    ("api.store.put_s", "api.store.put"),
    ("api.store.get_s", "api.store.get"),
)


def per_layer(raw: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Named per-layer metrics from a :meth:`Tracer.snapshot`.

    Times under an AGM sample are self seconds *per sample*, so they add
    up to the sample's wall time; other times are mean seconds per call;
    ``*.calls``, ``generations`` and ``edges`` are per sample or per call
    as named in ``perfbench/README.md``.  A layer that did no work reads 0.
    """
    calls = raw["calls"]
    self_time = raw["self"]
    wall = raw["wall"]
    counters = raw["counters"]

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    samples = calls.get("core.agm.sample", 0)
    metrics = {metric: ratio(self_time.get(span, 0.0), samples)
               for metric, span in SAMPLE_LAYERS}
    metrics.update({metric: ratio(wall.get(span, 0.0), calls.get(span, 0))
                    for metric, span in PER_CALL_LAYERS})
    repairs = calls.get(REPAIR_SEED, 0) + calls.get(REPAIR_FINAL, 0)
    metrics.update({
        "core.agm.generations": ratio(counters.get("core.agm.generations", 0),
                                      samples),
        "models.chung_lu.calls": ratio(calls.get("models.chung_lu", 0),
                                       samples),
        "models.chung_lu.edges": ratio(counters.get("models.chung_lu.edges", 0),
                                       calls.get("models.chung_lu", 0)),
        "models.postprocess.calls": ratio(repairs, samples),
        "models.postprocess.orphans_in": ratio(
            counters.get("models.postprocess.orphans_in", 0), repairs),
        "models.postprocess.orphans_out": ratio(
            counters.get("models.postprocess.orphans_out", 0), repairs),
        "models.tricycle.tau_gap": ratio(
            counters.get("models.tricycle.tau_gap", 0),
            counters.get("models.tricycle.tau_samples", 0)),
        "service.sample_model_s": ratio(wall.get("core.agm.sample", 0.0),
                                        samples),
        "service.refused": counters.get("service.refused", 0),
        "graphs.codec.bytes_per_graph": ratio(
            counters.get("graphs.codec.bytes", 0),
            calls.get("graphs.codec.block", 0)),
        "api.session.fit_hits": counters.get("api.session.fit_hits", 0),
        "api.session.fit_misses": counters.get("api.session.fit_misses", 0),
        "api.session.fit_miss_s": ratio(
            counters.get("api.session.fit_miss_wall", 0.0),
            counters.get("api.session.fit_misses", 0)),
    })
    return metrics


def sample_split(metrics: Dict[str, float], sample_s: float) -> Dict[str, Any]:
    """Each sample layer's self time and share of the traced ``sample_s``.

    ``core.agm.unaccounted_s`` is what the layers do not cover (work in
    ``ModelArtifact.sample`` outside the AGM loop, and the wrappers' own
    cost); ``coverage`` is the covered share.
    """
    layers = {metric: metrics[metric] for metric, _span in SAMPLE_LAYERS}
    covered = sum(layers.values())
    return {
        "sample_s": sample_s,
        "layers": {metric: {"s": value,
                            "share": value / sample_s if sample_s else 0.0}
                   for metric, value in layers.items()},
        "core.agm.unaccounted_s": sample_s - covered,
        "coverage": covered / sample_s if sample_s else 0.0,
    }
