"""The ``release-tricycle`` and ``release-fcl`` workloads.

One run drives the library's release path in this process, through its
public API only:

1. set-up, nine times: read the cached pokec input graph back and prime
   it with ``prepare_original_graph`` (the median is ``setup_s``);
2. rounds, at least 3 and until the run's seconds are spent, each of:

   - 2 cold fits: a fresh ``ReleaseSession`` per fit, each at a distinct
     spec seed, on a fresh copy of the primed input (so no fit reuses a
     cache an earlier fit filled);
   - one ``ModelArtifact.sample(count=1)`` from the first fit's artifact,
     at a distinct seed;
   - 2 ``evaluate_synthetic_graph`` calls scoring that sample, each on a
     fresh copy of it.

``fit_s`` and ``sample_s`` are the fastest call of the run.  The host
this runs on is shared: its speed changes by up to half for stretches of
seconds to a minute, and that only ever adds time.  A median takes in how
much of the run fell in a slow stretch; the fastest call (the rule
``timeit`` follows) measures the program.  ``evaluate_s`` is the median.

Correctness checks run between the timed calls and count as failures.
"""

from __future__ import annotations

import gc
import math
import pickle
import resource
import statistics
import time
from pathlib import Path
from typing import Any, Dict, List

import fixture
import spans

EPSILON = 1.0
NUM_ITERATIONS = 2
REFERENCE_FIT_SEED = 0
SETUP_REPEATS = 9
FITS_PER_ROUND = 2
EVALUATIONS_PER_SAMPLE = 2
MIN_ROUNDS = 3
MAX_ROUNDS = 250


def _fit_seed(seed: int, index: int) -> int:
    """Spec seed of the run's ``index``-th cold fit.

    The first fit is the reference release every sample is drawn from.
    Its spec seed is fixed: how much work a sample costs depends on the
    noise the fit drew (the triangle target, the acceptance vector), and
    that must not vary with the workload seed.
    """
    return REFERENCE_FIT_SEED if index == 0 else seed * 1009 + index


def _sample_seed(seed: int, index: int) -> int:
    return seed * 1009 + 500 + index


def peak_rss_mb() -> float:
    """This process's high-water RSS in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_sample(graph: Any, artifact: Any, original: Any) -> List[str]:
    """Invariants every sample must hold; returns the violated ones."""
    from repro.graphs.components import is_connected

    problems = []
    us, vs = graph.edge_arrays()
    if graph.num_nodes != original.num_nodes:
        problems.append(f"num_nodes {graph.num_nodes} != {original.num_nodes}")
    if graph.num_attributes != original.num_attributes:
        problems.append(f"attribute width {graph.num_attributes} != "
                        f"{original.num_attributes}")
    if (us == vs).any():
        problems.append("self-loop")
    if graph.num_edges == 0:
        problems.append("no edges")
    if artifact.backend == "tricycle":
        target = int(artifact.parameters.structural.degrees.sum() // 2)
        if graph.num_edges != target:
            problems.append(f"num_edges {graph.num_edges} != {target}")
        if not is_connected(graph):
            problems.append("not connected")
    return problems


def check_fit(artifact: Any) -> List[str]:
    spent = sum(artifact.spends().values())
    if not math.isclose(spent, EPSILON, rel_tol=1e-9):
        return [f"spends sum to {spent}, not {EPSILON}"]
    return []


def run_release(backend: str, seed: int, seconds: float, traced: bool,
                scale: float) -> Dict[str, Any]:
    from repro.api import ReleaseSession, ReleaseSpec
    from repro.metrics import evaluation, incremental

    built = fixture.ensure_fixture("pokec", scale)
    tracer = spans.install_layers(spans.Tracer()) if traced else None
    failures: List[str] = []

    # Set-up: materialise the input and prime it as the evaluation baseline.
    setup_times = []
    original = None
    for _ in range(SETUP_REPEATS):
        original = None
        gc.collect()
        start = time.perf_counter()
        original = pickle.loads(Path(built["path"]).read_bytes())
        incremental.prepare_original_graph(original)
        setup_times.append(time.perf_counter() - start)
    primed = pickle.dumps(original, protocol=pickle.HIGHEST_PROTOCOL)

    def spec(fit_seed: int) -> ReleaseSpec:
        return ReleaseSpec(dataset="pokec", scale=scale, seed=fit_seed,
                           epsilon=EPSILON, backend=backend,
                           num_iterations=NUM_ITERATIONS)

    begin = time.perf_counter()
    fit_times: List[float] = []
    sample_times: List[float] = []
    evaluate_times: List[float] = []
    artifact = None
    fits = 0

    def cold_fit() -> None:
        nonlocal artifact, fits
        graph = pickle.loads(primed)
        fit_seed = _fit_seed(seed, fits)
        fits += 1
        gc.collect()
        start = time.perf_counter()
        try:
            fitted = ReleaseSession().fit(spec(fit_seed), graph=graph)
        except Exception as exc:  # a failed operation is counted, not fatal
            failures.append(f"fit at seed {fit_seed}: {exc!r}")
            return
        fit_times.append(time.perf_counter() - start)
        failures.extend(f"fit at seed {fit_seed}: {problem}"
                        for problem in check_fit(fitted))
        artifact = artifact or fitted

    def sample_and_evaluate() -> None:
        sample_seed = _sample_seed(seed, len(rounds))
        gc.collect()
        try:
            start = time.perf_counter()
            sample = artifact.sample(count=1, seed=sample_seed)[0]
            sample_times.append(time.perf_counter() - start)
        except Exception as exc:  # a failed operation is counted, not fatal
            failures.append(f"sample at seed {sample_seed}: {exc!r}")
            return
        problems = check_sample(sample, artifact, original)
        if problems:
            failures.append(f"sample at seed {sample_seed}: "
                            + "; ".join(problems))
        frozen = pickle.dumps(sample, protocol=pickle.HIGHEST_PROTOCOL)
        for _ in range(EVALUATIONS_PER_SAMPLE):
            copy = pickle.loads(frozen)
            gc.collect()
            try:
                start = time.perf_counter()
                scores = evaluation.evaluate_synthetic_graph(original, copy)
                evaluate_times.append(time.perf_counter() - start)
            except Exception as exc:  # a failed operation is counted
                failures.append(f"evaluate at seed {sample_seed}: {exc!r}")
                continue
            if not all(math.isfinite(value)
                       for value in scores.as_dict().values()):
                failures.append(f"non-finite evaluation at seed {sample_seed}")

    # Rounds interleave fits, a sample and its evaluations, so each metric
    # is sampled across the whole run rather than one stretch of it.
    rounds: List[float] = []
    while len(rounds) < MIN_ROUNDS or (
            len(rounds) < MAX_ROUNDS
            and time.perf_counter() - begin + statistics.median(rounds)
            <= seconds):
        round_start = time.perf_counter()
        for _ in range(FITS_PER_ROUND):
            cold_fit()
        if artifact is None:
            raise RuntimeError(f"every fit failed: {failures[-3:]}")
        sample_and_evaluate()
        rounds.append(time.perf_counter() - round_start)
    attempted = fits + len(rounds) * (1 + EVALUATIONS_PER_SAMPLE)
    timed_s = time.perf_counter() - begin
    peak = peak_rss_mb()

    failed = len(failures)
    report: Dict[str, Any] = {
        "input": {key: built[key] for key in
                  ("dataset", "scale", "seed", "num_nodes", "num_edges")},
        "fixture_generate_s": built["generate_s"],
        "fits": len(fit_times),
        "samples": len(sample_times),
        "timed_s": timed_s,
        "failures": failures[:20],
        "metrics": {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "fit_s": {"value": min(fit_times), "unit": "s"},
            "sample_s": {"value": min(sample_times), "unit": "s"},
            "fit_median_s": {"value": statistics.median(fit_times),
                             "unit": "s"},
            "sample_median_s": {"value": statistics.median(sample_times),
                                "unit": "s"},
            "evaluate_s": {"value": statistics.median(evaluate_times),
                           "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MiB"},
            "failed_frac": {"value": failed / attempted, "unit": "ratio"},
        },
    }
    outcome = {
        "end_to_end": {name: entry["value"]
                       for name, entry in report["metrics"].items()},
        "attempted": attempted,
        "failed": failed,
        "report": report,
        "layers": None,
    }
    if tracer is not None:
        outcome["layers"] = _traced_extras(
            tracer, report, artifact, original, scale, seed, sample_times,
            failures)
        outcome["failed"] = len(failures)
        outcome["attempted"] = attempted + 1
    return outcome


def _traced_extras(tracer: spans.Tracer, report: Dict[str, Any],
                   artifact: Any, original: Any, scale: float, seed: int,
                   sample_times: List[float], failures: List[str]
                   ) -> Dict[str, float]:
    """Per-layer metrics, the ``sample_s`` split and the tracing overhead.

    Also times ``load_dataset`` once (the fixture stands in for it in
    set-up) and checks it reproduces the cached input graph.
    """
    import repro.datasets.registry as registry

    fresh = registry.load_dataset("pokec", scale=scale,
                                  seed=fixture.FIXTURE_SEED)
    cached_us, cached_vs = original.edge_arrays()
    fresh_us, fresh_vs = fresh.edge_arrays()
    if not (fresh.num_nodes == original.num_nodes
            and fresh_us.shape == cached_us.shape
            and (fresh_us == cached_us).all() and (fresh_vs == cached_vs).all()):
        failures.append("cached input differs from load_dataset")
    del fresh
    layers = spans.per_layer(tracer.snapshot())
    tracer.uninstall()

    # Tracing overhead: the last sample seed again, untraced (the first
    # sample of a process also pays one-off warm-up costs).
    last = len(sample_times) - 1
    start = time.perf_counter()
    artifact.sample(count=1, seed=_sample_seed(seed, last))
    untraced = time.perf_counter() - start
    report["split"] = spans.sample_split(layers, statistics.mean(sample_times))
    report["tracing_overhead"] = {
        "traced_sample_s": sample_times[last],
        "untraced_sample_s": untraced,
        "overhead_s": sample_times[last] - untraced,
        "overhead_frac": (sample_times[last] - untraced) / untraced,
    }
    layers["core.agm.unaccounted_s"] = report["split"]["core.agm.unaccounted_s"]
    return layers
