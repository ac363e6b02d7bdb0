#!/usr/bin/env python
"""Perf benchmark driver for the CSR structural core.

Times the vectorized CSR kernels and the batched TriCycLe rewiring engine
against the original pure-Python reference implementations (the oracles in
:mod:`repro.testing.reference`, ``*_reference`` kernels included),
verifies that both sides produce identical results, and *appends* a dated
entry to the ``BENCH_perf.json`` trajectory (older entries are preserved; a
legacy single-report file is migrated into the first entry) so future PRs
have a perf history to regress against, not just the latest run.

Each entry also records the Monte-Carlo runner's serial vs. parallel
timings (``--skip-runner`` disables that section) together with a
bit-identity check of the averaged reports, and a ``metrics`` section
comparing the memoized metric-evaluation leg (its JSON keys keep the older
``accelerated_*`` names, so the trajectory still compares) against the
historical from-scratch path (``--metrics-tiers`` / ``--skip-metrics``).

Measurement protocol
--------------------
* Every timing is the best of ``--repeats`` runs (minimum wall time).
* Statistics kernels are timed on a graph whose CSR view is already built,
  mirroring real pipeline usage where one cached view serves every
  statistic; the one-time view construction is reported separately as the
  ``csr_build`` row.
* Generator rows time the full ``generate()`` call on both sides.

Usage::

    PYTHONPATH=src python scripts/bench_perf.py [--output BENCH_perf.json]
    PYTHONPATH=src python scripts/bench_perf.py --tiers lastfm petster

Heavier tiers (``epinions``) can be added with ``--tiers``; the default set
keeps the whole run under a minute.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.datasets.registry import get_dataset_spec  # noqa: E402
from repro.experiments.runner import (  # noqa: E402
    ExperimentConfig,
    run_trials,
)
from repro.graphs import statistics as stats  # noqa: E402
from repro.models.chung_lu import ChungLuModel  # noqa: E402
from repro.models.tricycle import TriCycLeModel  # noqa: E402
from repro.testing import reference as oracles  # noqa: E402
from repro.testing.reference import (  # noqa: E402
    SequentialTriCycLeModel,
    evaluate_synthetic_graph_reference,
    post_process_graph_scalar,
)

#: Seed shared with the table/figure benchmarks (the paper's conference date).
BENCH_SEED = 20160626

#: Benchmark tiers: dataset registry key -> generation scale.  ``lastfm`` is
#: the acceptance tier — the paper's smallest dataset at its full size.
#: Sub-scale tiers (e.g. ``lastfm-0.2``) can be requested with ``--tiers``
#: but are excluded by default: their kernels finish in fractions of a
#: millisecond, where timer noise dominates the speedup ratios.
DEFAULT_TIERS: Dict[str, float] = {
    "lastfm": 1.0,
    "petster": 1.0,
}


def _best_of(function: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def _tier_graph(tier: str, scale: float):
    dataset = tier.split("-")[0]
    spec = get_dataset_spec(dataset)
    return spec.generator(scale=scale, seed=BENCH_SEED)


def bench_tier(tier: str, scale: float, repeats: int) -> List[dict]:
    graph = _tier_graph(tier, scale)
    n, m = graph.num_nodes, graph.num_edges
    rows: List[dict] = []

    def row(kernel: str, ref_seconds, fast_seconds, equal: bool) -> None:
        rows.append({
            "kernel": kernel,
            "tier": tier,
            "n": n,
            "m": m,
            "reference_seconds": ref_seconds,
            "fast_seconds": fast_seconds,
            "speedup": (ref_seconds / fast_seconds)
            if (ref_seconds and fast_seconds) else None,
            "identical_results": equal,
        })

    # One-time CSR view construction (charged separately, reused by every
    # statistics kernel below).
    fresh = graph.copy()
    build = _best_of(lambda: graph.copy().csr(), max(2, repeats // 2))
    baseline_copy = _best_of(lambda: graph.copy(), max(2, repeats // 2))
    row("csr_build", None, max(build - baseline_copy, 0.0), True)
    fresh.csr()

    pairs = [
        ("triangle_count", oracles.triangle_count_reference,
         stats.triangle_count, lambda a, b: a == b),
        ("triangles_per_node", oracles.triangles_per_node_reference,
         stats.triangles_per_node, np.array_equal),
        # Section key matches the real export name (the seed's shorthand
        # "local_clustering" never existed as an API symbol).
        ("local_clustering_coefficients",
         oracles.local_clustering_coefficients_reference,
         stats.local_clustering_coefficients, np.allclose),
        ("max_common_neighbours", oracles.max_common_neighbours_reference,
         stats.max_common_neighbours, lambda a, b: a == b),
        ("degree_ccdf", oracles.degree_ccdf_reference,
         stats.degree_ccdf, lambda a, b: a == b),
    ]
    for kernel, reference, fast, same in pairs:
        ref_result = reference(fresh)
        fast_result = fast(fresh)
        ref_t = _best_of(lambda: reference(fresh), repeats)
        fast_t = _best_of(lambda: fast(fresh), repeats)
        row(kernel, ref_t, fast_t, bool(same(ref_result, fast_result)))

    degrees = fresh.degrees()
    triangles = stats.triangle_count(fresh)
    tricycle_exact = TriCycLeModel(degrees, num_triangles=triangles)
    tricycle_sequential = SequentialTriCycLeModel(degrees,
                                                  num_triangles=triangles)
    same_graph = (
        tricycle_exact.generate(rng=1) == tricycle_sequential.generate(rng=1)
    )
    seq_t = _best_of(lambda: tricycle_sequential.generate(rng=1),
                     max(2, repeats // 2))
    exact_t = _best_of(lambda: tricycle_exact.generate(rng=1),
                       max(2, repeats // 2))
    row("tricycle_generate", seq_t, exact_t, bool(same_graph))

    return rows


def bench_orphan_repair(scale: float, repeats: int) -> dict:
    """Scalar vs vectorized orphan repair (Algorithm 2), measured in situ.

    Runs full TriCycLe generation at the requested pokec-like scale
    (``0.034`` ≈ the n=20k micro-tier) with its repair swapped for the
    scalar oracle and then the production engine, timing the two
    `post_process_graph` calls the pipeline makes (the Chung-Lu seed repair
    and the heavier post-rewiring repair, where every attachment forces a
    victim removal).  Everything else —
    seed generation, rewiring — runs the identical default path, so the
    section isolates exactly the repair step.  Both paths must hit
    ``sum(desired) // 2`` edges and a single component; the RNG streams
    differ by design, so equality is on those invariants, not bit-identity.
    """
    import repro.models.tricycle as tricycle_module

    from repro.datasets.synthetic import pokec_like
    from repro.graphs import statistics as graph_stats
    from repro.graphs.components import is_connected

    reference_graph = pokec_like(scale=scale, seed=BENCH_SEED)
    desired = reference_graph.degrees()
    triangles = graph_stats.triangle_count(reference_graph)
    target = int(desired.sum() // 2)

    original = tricycle_module.post_process_graph
    repair_times: List[float] = []

    def run(repair: Callable) -> tuple:
        def timed(*args, **kwargs):
            start = time.perf_counter()
            result = repair(*args, **kwargs)
            repair_times.append(time.perf_counter() - start)
            return result

        tricycle_module.post_process_graph = timed
        model = TriCycLeModel(desired, num_triangles=triangles)
        repair_times.clear()
        graph = model.generate(rng=1)
        return sum(repair_times), graph

    try:
        scalar_t, scalar_graph = run(post_process_graph_scalar)
        vector_t, vector_graph = run(original)
        for _ in range(max(1, repeats // 2 - 1)):
            scalar_t = min(scalar_t, run(post_process_graph_scalar)[0])
            vector_t = min(vector_t, run(original)[0])
    finally:
        tricycle_module.post_process_graph = original

    invariants_hold = (
        scalar_graph.num_edges == target
        and vector_graph.num_edges == target
        and is_connected(scalar_graph) and is_connected(vector_graph)
    )
    return {
        "n": reference_graph.num_nodes,
        "m": reference_graph.num_edges,
        "target_edges": target,
        "scale": scale,
        "repair_calls": 2,
        "reference_seconds": scalar_t,
        "fast_seconds": vector_t,
        "speedup": scalar_t / vector_t if vector_t else None,
        "invariants_hold": bool(invariants_hold),
    }


def bench_metrics(tier: str, repeats: int, trials: int = 3) -> dict:
    """Memoized vs from-scratch metric-evaluation leg.

    Mirrors the evaluate stage's real shape: one original graph, several
    synthetic samples, each scored with ``evaluate_synthetic_graph``.  The
    from-scratch leg runs ``evaluate_synthetic_graph_reference``, which
    rescans both graphs on every call; the memoized leg (reported under
    the ``accelerated_*`` keys) primes the original once via
    ``prepare_original_graph`` and evaluates fresh synthetic copies per
    repeat, so the timing includes the synthetic side's one-time census
    scan — the genuine steady-state cost.  Both legs pay the same
    per-synthetic copy, and the report lists must be bit-identical.
    """
    from repro.graphs.attributed import AttributedGraph
    from repro.metrics.evaluation import evaluate_synthetic_graph
    from repro.metrics.incremental import prepare_original_graph

    parts = tier.split("-")
    scale = float(parts[1]) if len(parts) > 1 else 1.0
    original = _tier_graph(tier, scale)

    model = ChungLuModel(original.degrees())
    synthetics = []
    for seed in range(trials):
        structure = model.generate(rng=seed)
        sample = AttributedGraph.from_graph_structure(
            structure, original.num_attributes
        )
        sample.set_all_attributes(original.attributes)
        synthetics.append(sample)

    scratch_original = original.copy()

    def scratch_leg() -> list:
        return [
            evaluate_synthetic_graph_reference(scratch_original, sample.copy())
            for sample in synthetics
        ]

    prepare_original_graph(original)

    def accelerated_leg() -> list:
        # Fresh copies: each repeat pays the synthetic side's census scan
        # (copies start without a statistics memo).
        return [
            evaluate_synthetic_graph(original, sample.copy())
            for sample in synthetics
        ]

    scratch_reports = scratch_leg()
    accelerated_reports = accelerated_leg()
    timing_repeats = max(2, repeats // 2)
    scratch_t = _best_of(scratch_leg, timing_repeats)
    accelerated_t = _best_of(accelerated_leg, timing_repeats)
    return {
        "tier": tier,
        "n": original.num_nodes,
        "m": original.num_edges,
        "trials": trials,
        "from_scratch_seconds": scratch_t,
        "accelerated_seconds": accelerated_t,
        "speedup": (scratch_t / accelerated_t) if accelerated_t else None,
        "identical_results": accelerated_reports == scratch_reports,
    }


_GENERATION_WORKER = """
import json, resource, sys, time
from repro.datasets.registry import get_dataset_spec

dataset, scale, seed = sys.argv[1], float(sys.argv[2]), int(sys.argv[3])
start = time.perf_counter()
graph = get_dataset_spec(dataset).generator(scale=scale, seed=seed)
wall = time.perf_counter() - start
# ru_maxrss is kilobytes on Linux but *bytes* on macOS.
to_mb = (1 << 20) if sys.platform == "darwin" else 1024
print(json.dumps({
    "n": graph.num_nodes,
    "m": graph.num_edges,
    "wall_seconds": wall,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / to_mb,
}))
"""


def bench_generation(tier: str,
                     memory_budget_mb: Optional[int] = None) -> dict:
    """End-to-end dataset-generation benchmark: wall time and peak RSS.

    ``tier`` is ``dataset-scale`` (e.g. ``pokec-0.2``).  The generation runs
    once (these tiers are minutes, not milliseconds — best-of timing would
    be wasteful) **in a fresh subprocess**, so the reported peak RSS is the
    generator's own footprint, not the running maximum of whatever the
    benchmark process allocated earlier.

    With ``memory_budget_mb`` the worker runs under
    ``REPRO_MEMORY_BUDGET_MB`` — generation shards its sampling passes to
    the budget and fails fast (``over_memory``) when the tier cannot fit —
    and the entry records the budget plus whether the measured peak RSS
    stayed under it (``under_budget``).
    """
    import json as _json
    import os
    import subprocess

    parts = tier.split("-")
    dataset = parts[0]
    scale = float(parts[1]) if len(parts) > 1 else 1.0
    environment = dict(os.environ)
    source_root = str(Path(__file__).resolve().parent.parent / "src")
    environment["PYTHONPATH"] = source_root + (
        os.pathsep + environment["PYTHONPATH"]
        if environment.get("PYTHONPATH") else ""
    )
    if memory_budget_mb is not None:
        environment["REPRO_MEMORY_BUDGET_MB"] = str(int(memory_budget_mb))
    else:
        environment.pop("REPRO_MEMORY_BUDGET_MB", None)
    output = subprocess.run(
        [sys.executable, "-c", _GENERATION_WORKER,
         dataset, str(scale), str(BENCH_SEED)],
        check=True, capture_output=True, text=True, env=environment,
    )
    report = _json.loads(output.stdout)
    report.update({"tier": tier, "dataset": dataset, "scale": scale})
    if memory_budget_mb is not None:
        report["memory_budget_mb"] = int(memory_budget_mb)
        report["under_budget"] = bool(
            report["peak_rss_mb"] <= memory_budget_mb
        )
    return report


def bench_runner(trials: int, workers: int, repeats: int) -> dict:
    """Time the Monte-Carlo runner serially and with worker processes.

    Uses a reduced-scale lastfm-like input so the section stays fast; the
    bit-identity of the averaged reports is asserted, the speedup is
    whatever the current host's core count delivers.
    """
    graph = get_dataset_spec("lastfm").generator(scale=0.35, seed=BENCH_SEED)
    config = ExperimentConfig(backend="tricycle", epsilon=1.0, trials=trials,
                              num_iterations=1)
    serial_report = run_trials(graph, config, rng=BENCH_SEED, workers=1)
    parallel_report = run_trials(graph, config, rng=BENCH_SEED, workers=workers)
    serial_t = _best_of(
        lambda: run_trials(graph, config, rng=BENCH_SEED, workers=1),
        max(2, repeats // 2),
    )
    parallel_t = _best_of(
        lambda: run_trials(graph, config, rng=BENCH_SEED, workers=workers),
        max(2, repeats // 2),
    )
    return {
        "n": graph.num_nodes,
        "m": graph.num_edges,
        "trials": trials,
        "workers": workers,
        "serial_seconds": serial_t,
        "parallel_seconds": parallel_t,
        "speedup": serial_t / parallel_t if parallel_t else None,
        "identical_results": serial_report == parallel_report,
    }


#: The service benchmark spec (FCL backend, so the numbers measure serving
#: and wire-format overhead rather than TriCycLe rewiring).
SERVICE_SPEC = {
    "spec_version": 1,
    "dataset": "lastfm", "scale": 0.35, "seed": BENCH_SEED,
    "epsilon": 1.0, "backend": "fcl", "num_iterations": 1,
}


class _KeepAliveClient:
    """One persistent HTTP/1.1 connection (urllib reconnects per request,
    which would charge TCP setup to every sample)."""

    def __init__(self, host: str, port: int) -> None:
        import http.client

        self._conn = http.client.HTTPConnection(host, port, timeout=120)

    def post(self, path: str, payload: dict, accept: Optional[str] = None):
        headers = {"Content-Type": "application/json"}
        if accept is not None:
            headers["Accept"] = accept
        self._conn.request("POST", path,
                           json.dumps(payload).encode("utf-8"), headers)
        response = self._conn.getresponse()
        body = response.read()
        if response.status != 200:
            raise RuntimeError(f"POST {path} -> {response.status}: "
                               f"{body[:200]!r}")
        return body

    def close(self) -> None:
        self._conn.close()


def _timed_sample_loop(client: _KeepAliveClient, requests: int,
                       accept: Optional[str]) -> dict:
    """Time ``requests`` warm ``/sample`` calls on one connection."""
    client.post("/sample", {"spec": SERVICE_SPEC, "count": 1, "seed": 0},
                accept)  # warm-up: lazy init, codec import
    latencies = []
    bytes_total = 0
    start = time.perf_counter()
    for index in range(requests):
        begin = time.perf_counter()
        body = client.post(
            "/sample", {"spec": SERVICE_SPEC, "count": 1, "seed": index},
            accept,
        )
        latencies.append(time.perf_counter() - begin)
        bytes_total += len(body)
    elapsed = time.perf_counter() - start
    latencies_ms = np.asarray(latencies) * 1000.0
    return {
        "requests": requests,
        "seconds": elapsed,
        "requests_per_second": requests / elapsed if elapsed else None,
        "bytes_per_request": bytes_total / requests if requests else None,
        "latency_p50_ms": float(np.percentile(latencies_ms, 50)),
        "latency_p99_ms": float(np.percentile(latencies_ms, 99)),
    }


def bench_service(requests: int, workers: int) -> dict:
    """Warm ``POST /sample`` throughput, per wire codec.

    Starts the HTTP service in-process on a free port, pays one ``/fit``,
    then times ``requests`` keep-alive sample requests per codec — all
    cache hits, i.e. pure post-processing.  Records req/s, bytes/request
    and latency percentiles for the JSON and binary codecs, plus a
    bit-identity check between them.
    """
    from repro.graphs import codec
    from repro.graphs.io import graph_to_payload
    from repro.service import ReleaseServer

    with ReleaseServer(port=0, workers=workers) as server:
        host, port = server.address
        client = _KeepAliveClient(host, port)
        try:
            start = time.perf_counter()
            fit = json.loads(client.post("/fit", SERVICE_SPEC))
            fit_seconds = time.perf_counter() - start

            by_codec = {
                "json": _timed_sample_loop(client, requests, None),
                "binary": _timed_sample_loop(client, requests,
                                             codec.CONTENT_TYPE_BINARY),
            }

            # Bit-identity across codecs at a fixed seed.
            probe = {"spec": SERVICE_SPEC, "count": 1, "seed": 0}
            json_graphs = json.loads(client.post("/sample", probe))["graphs"]
            binary_graphs = codec.decode_response(
                client.post("/sample", probe,
                            accept=codec.CONTENT_TYPE_BINARY)
            )["graphs"]
            identical = json_graphs == [graph_to_payload(g)
                                        for g in binary_graphs]
            health = json.loads(client.post("/sample", probe))  # cache probe
        finally:
            client.close()

    json_rps = by_codec["json"]["requests_per_second"]
    binary_rps = by_codec["binary"]["requests_per_second"]
    return {
        "spec": {key: SERVICE_SPEC[key]
                 for key in ("dataset", "scale", "backend")},
        "workers": workers,
        "fit_seconds": fit_seconds,
        "sample_requests": requests,
        "codecs": by_codec,
        "binary_speedup": (binary_rps / json_rps
                           if json_rps and binary_rps else None),
        "identical_across_codecs": bool(identical),
        "all_cache_hits": bool(health.get("cache_hit")),
        "artifact_id": fit["artifact_id"],
    }


def bench_service_fleet(requests: int, workers: int, processes: int
                        ) -> Optional[dict]:
    """Aggregate binary-codec throughput of a ``serve --processes`` fleet.

    Launches the real CLI supervisor as a subprocess (SO_REUSEPORT workers
    sharing an on-disk artifact store), then drives it with one keep-alive
    client thread per worker process.  On multi-core hosts the aggregate
    req/s scales with cores; on a single core it measures the supervisor's
    overhead instead (see ROADMAP's wire-format section).
    """
    import os
    import signal
    import socket
    import subprocess
    import tempfile
    import threading

    from repro.graphs import codec

    if not hasattr(socket, "SO_REUSEPORT"):  # pragma: no cover
        return None

    env = dict(os.environ)
    source_root = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = source_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    with tempfile.TemporaryDirectory(prefix="repro-bench-fleet-") as tmp:
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve",
             "--processes", str(processes), "--port", "0",
             "--workers", str(workers),
             "--artifact-dir", str(Path(tmp) / "artifacts")],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            if "listening on" not in line:
                raise RuntimeError(f"supervisor failed to start: {line!r}")
            url = line.split("listening on", 1)[1].split()[0]
            host, port = url.split("//", 1)[1].rsplit(":", 1)

            deadline = time.perf_counter() + 30
            while True:
                try:
                    _KeepAliveClient(host, int(port)).post(
                        "/fit", SERVICE_SPEC)
                    break
                except (ConnectionError, OSError):
                    if time.perf_counter() > deadline:
                        raise
                    time.sleep(0.1)

            per_thread = max(1, requests // processes)
            results: List[Optional[dict]] = [None] * processes
            barrier = threading.Barrier(processes)

            def drive(slot: int) -> None:
                client = _KeepAliveClient(host, int(port))
                try:
                    barrier.wait(timeout=60)
                    results[slot] = _timed_sample_loop(
                        client, per_thread, codec.CONTENT_TYPE_BINARY
                    )
                finally:
                    client.close()

            threads = [threading.Thread(target=drive, args=(slot,))
                       for slot in range(processes)]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - start
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
                proc.wait(timeout=10)

    done = [r for r in results if r is not None]
    total = sum(r["requests"] for r in done)
    return {
        "processes": processes,
        "workers_per_process": workers,
        "client_threads": processes,
        "requests": total,
        "seconds": elapsed,
        "requests_per_second": total / elapsed if elapsed else None,
        "latency_p50_ms": (float(np.median([r["latency_p50_ms"]
                                            for r in done]))
                           if done else None),
    }


def load_trajectory(path: Path) -> dict:
    """Load the existing trajectory, migrating the legacy flat format."""
    if not path.exists():
        return {"benchmark": "bench_perf_core", "entries": []}
    previous = json.loads(path.read_text())
    if "entries" in previous:
        return previous
    # Legacy layout: one flat report — preserve it as the first entry.
    entry = {key: previous[key] for key in ("seed", "repeats", "results")
             if key in previous}
    entry.setdefault("date", None)
    return {
        "benchmark": previous.get("benchmark", "bench_perf_core"),
        "entries": [entry],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_perf.json",
                        help="where to write the JSON report")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing repetitions (best-of)")
    parser.add_argument("--tiers", nargs="*", default=None,
                        help="tier names, e.g. lastfm petster epinions; a "
                             "'-<scale>' suffix overrides the scale")
    parser.add_argument("--generation-tiers", nargs="*", default=[],
                        help="dataset-generation tiers timed end-to-end with "
                             "peak RSS, e.g. pokec-0.2 (the nightly CI tier); "
                             "off by default — generation at the pokec tier "
                             "takes minutes")
    parser.add_argument("--memory-budget-mb", type=int, default=None,
                        help="run the generation tiers under this memory "
                             "budget (REPRO_MEMORY_BUDGET_MB in the worker); "
                             "records the budget and an under_budget flag "
                             "per generation entry")
    parser.add_argument("--metrics-tiers", nargs="*", default=["epinions"],
                        help="tiers for the memoized-vs-from-scratch "
                             "metric-evaluation section (the nightly CI adds "
                             "pokec-0.1); a '-<scale>' suffix overrides the "
                             "scale")
    parser.add_argument("--skip-metrics", action="store_true",
                        help="skip the metric-evaluation (memoized vs "
                             "from-scratch) section")
    parser.add_argument("--skip-orphan-repair", action="store_true",
                        help="skip the orphan-repair (Algorithm 2) "
                             "scalar-vs-vectorized section")
    parser.add_argument("--orphan-repair-scale", type=float, default=0.034,
                        help="pokec-like scale of the orphan-repair "
                             "micro-tier (0.034 ≈ n=20k)")
    parser.add_argument("--skip-runner", action="store_true",
                        help="skip the Monte-Carlo runner speedup section")
    parser.add_argument("--runner-trials", type=int, default=8,
                        help="trials for the runner speedup section")
    parser.add_argument("--runner-workers", type=int, default=4,
                        help="worker processes for the runner section")
    parser.add_argument("--skip-service", action="store_true",
                        help="skip the HTTP service throughput section")
    parser.add_argument("--service-requests", type=int, default=50,
                        help="sample requests for the service section")
    parser.add_argument("--service-workers", type=int, default=4,
                        help="worker threads for the service section")
    parser.add_argument("--service-processes", type=int, default=2,
                        help="worker processes for the multi-process fleet "
                             "leg (0 disables it)")
    args = parser.parse_args(argv)

    if args.tiers:
        tiers = {}
        for tier in args.tiers:
            parts = tier.split("-")
            tiers[tier] = float(parts[1]) if len(parts) > 1 else 1.0
    else:
        tiers = dict(DEFAULT_TIERS)

    results: List[dict] = []
    for tier, scale in tiers.items():
        print(f"benchmarking tier {tier} (scale={scale}) ...", flush=True)
        results.extend(bench_tier(tier, scale, repeats=args.repeats))

    generation: List[dict] = []
    for tier in args.generation_tiers:
        print(f"benchmarking generation tier {tier} ...", flush=True)
        generation.append(
            bench_generation(tier, memory_budget_mb=args.memory_budget_mb)
        )

    metrics: List[dict] = []
    if not args.skip_metrics:
        for tier in args.metrics_tiers:
            print(f"benchmarking metric evaluation at tier {tier} ...",
                  flush=True)
            metrics.append(bench_metrics(tier, repeats=args.repeats))

    orphan_repair: Optional[dict] = None
    if not args.skip_orphan_repair:
        print(f"benchmarking orphan repair "
              f"(pokec-{args.orphan_repair_scale}) ...", flush=True)
        orphan_repair = bench_orphan_repair(args.orphan_repair_scale,
                                            repeats=args.repeats)

    runner: Optional[dict] = None
    if not args.skip_runner:
        print(f"benchmarking runner (trials={args.runner_trials}, "
              f"workers={args.runner_workers}) ...", flush=True)
        runner = bench_runner(args.runner_trials, args.runner_workers,
                              repeats=args.repeats)

    service: Optional[dict] = None
    if not args.skip_service:
        print(f"benchmarking service (requests={args.service_requests}, "
              f"workers={args.service_workers}) ...", flush=True)
        service = bench_service(args.service_requests, args.service_workers)
        if args.service_processes > 1:
            print(f"benchmarking service fleet "
                  f"(processes={args.service_processes}) ...", flush=True)
            service["fleet"] = bench_service_fleet(
                args.service_requests, args.service_workers,
                args.service_processes,
            )

    entry = {
        "date": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "seed": BENCH_SEED,
        "repeats": args.repeats,
        "results": results,
        "generation": generation or None,
        "metrics": metrics or None,
        "orphan_repair": orphan_repair,
        "runner": runner,
        "service": service,
    }
    output = Path(args.output)
    trajectory = load_trajectory(output)
    trajectory["entries"].append(entry)
    output.write_text(json.dumps(trajectory, indent=2) + "\n")

    header = f"{'kernel':<24} {'tier':<12} {'n':>7} {'m':>8} " \
             f"{'ref (s)':>10} {'fast (s)':>10} {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for entry in results:
        ref = f"{entry['reference_seconds']:.5f}" \
            if entry["reference_seconds"] is not None else "-"
        speed = f"{entry['speedup']:.1f}x" if entry["speedup"] else "-"
        print(f"{entry['kernel']:<24} {entry['tier']:<12} {entry['n']:>7} "
              f"{entry['m']:>8} {ref:>10} {entry['fast_seconds']:>10.5f} "
              f"{speed:>8}")
        if not entry["identical_results"]:
            print(f"  WARNING: {entry['kernel']} results differ!")
    for row in generation:
        budget = ""
        if "memory_budget_mb" in row:
            verdict = "under" if row["under_budget"] else "OVER"
            budget = (f"  ({verdict} {row['memory_budget_mb']} MB "
                      f"budget)")
        print(f"\ngeneration {row['tier']}: n={row['n']} m={row['m']}  "
              f"{row['wall_seconds']:.1f}s  "
              f"peak RSS {row['peak_rss_mb']:.0f} MB{budget}")
    for row in metrics:
        print(f"\nmetrics {row['tier']}: n={row['n']} m={row['m']} "
              f"({row['trials']} synthetics)  "
              f"from-scratch {row['from_scratch_seconds']:.3f}s  "
              f"memoized {row['accelerated_seconds']:.3f}s  "
              f"-> {row['speedup']:.1f}x  "
              f"identical={row['identical_results']}")
    if orphan_repair is not None:
        print(f"\norphan_repair (n={orphan_repair['n']}, in-situ TriCycLe "
              f"repair calls): "
              f"scalar {orphan_repair['reference_seconds']:.3f}s  "
              f"vectorized {orphan_repair['fast_seconds']:.3f}s  "
              f"-> {orphan_repair['speedup']:.1f}x  "
              f"invariants={orphan_repair['invariants_hold']}")
    if runner is not None:
        print(f"\nrunner: {runner['trials']} trials  "
              f"serial {runner['serial_seconds']:.3f}s  "
              f"parallel({runner['workers']}) {runner['parallel_seconds']:.3f}s  "
              f"-> {runner['speedup']:.2f}x  "
              f"identical={runner['identical_results']}")
    if service is not None:
        print(f"\nservice: fit {service['fit_seconds']:.3f}s once, then "
              f"{service['sample_requests']} warm sample requests per codec "
              f"(identical_across_codecs="
              f"{service['identical_across_codecs']})")
        for name, run in service["codecs"].items():
            print(f"  {name:<6} {run['requests_per_second']:>7.1f} req/s  "
                  f"{run['bytes_per_request']:>9.0f} B/req  "
                  f"p50 {run['latency_p50_ms']:.1f}ms "
                  f"p99 {run['latency_p99_ms']:.1f}ms")
        if service.get("binary_speedup"):
            print(f"  binary codec speedup over JSON: "
                  f"{service['binary_speedup']:.2f}x")
        fleet = service.get("fleet")
        if fleet is not None:
            print(f"  fleet({fleet['processes']} procs) "
                  f"{fleet['requests_per_second']:>7.1f} req/s aggregate "
                  f"({fleet['requests']} binary requests, "
                  f"{fleet['client_threads']} client threads)")
    print(f"\nappended entry {len(trajectory['entries'])} to {output}")
    mismatches = [e for e in results if not e["identical_results"]]
    mismatches.extend(row for row in generation
                      if row.get("under_budget") is False)
    mismatches.extend(row for row in metrics if not row["identical_results"])
    if orphan_repair is not None and not orphan_repair["invariants_hold"]:
        mismatches.append(orphan_repair)
    if runner is not None and not runner["identical_results"]:
        mismatches.append(runner)
    if service is not None and not (service["all_cache_hits"]
                                    and service["identical_across_codecs"]):
        mismatches.append(service)
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
