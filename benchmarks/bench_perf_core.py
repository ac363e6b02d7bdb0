"""Perf benchmarks for the CSR structural core.

Times the vectorized CSR kernels, the accelerated evaluation and the
vectorized orphan repair against the pure-Python reference implementations
(the ``*_reference`` kernels and the oracles in
:mod:`repro.testing.reference`), asserting both result equivalence and a
conservative minimum speedup (the full measured trajectory is produced by
``scripts/bench_perf.py``, which writes ``BENCH_perf.json``).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_perf_core.py -s
"""

import time

import numpy as np
import pytest

from repro.graphs import statistics as stats
from repro.models.chung_lu import ChungLuModel
from repro.testing.reference import (
    evaluate_synthetic_graph_reference,
    max_common_neighbours_reference,
    post_process_graph_scalar,
    triangle_count_reference,
    triangles_per_node_reference,
)

#: Conservative lower bounds (the driver typically measures far higher);
#: generous slack keeps the suite robust on loaded CI machines.
MIN_KERNEL_SPEEDUP = 4.0


def _best_of(function, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def warm_graph(lastfm_graph):
    graph = lastfm_graph.copy()
    graph.csr()
    return graph


class TestTriangleKernels:
    def test_triangle_count_speedup_and_equivalence(self, warm_graph):
        reference = triangle_count_reference(warm_graph)
        fast = stats.triangle_count(warm_graph)
        assert fast == reference
        ref_t = _best_of(lambda: triangle_count_reference(warm_graph))
        fast_t = _best_of(lambda: stats.triangle_count(warm_graph))
        speedup = ref_t / fast_t
        print(f"\ntriangle_count: ref {ref_t:.5f}s fast {fast_t:.5f}s "
              f"-> {speedup:.1f}x")
        assert speedup >= MIN_KERNEL_SPEEDUP

    def test_triangles_per_node(self, warm_graph):
        assert np.array_equal(
            stats.triangles_per_node(warm_graph),
            triangles_per_node_reference(warm_graph),
        )
        ref_t = _best_of(lambda: triangles_per_node_reference(warm_graph))
        fast_t = _best_of(lambda: stats.triangles_per_node(warm_graph))
        print(f"\ntriangles_per_node: ref {ref_t:.5f}s fast {fast_t:.5f}s "
              f"-> {ref_t / fast_t:.1f}x")
        assert ref_t / fast_t >= MIN_KERNEL_SPEEDUP


class TestSensitivityKernel:
    def test_max_common_neighbours(self, warm_graph):
        assert stats.max_common_neighbours(warm_graph) == \
            max_common_neighbours_reference(warm_graph)
        ref_t = _best_of(
            lambda: max_common_neighbours_reference(warm_graph), repeats=2
        )
        fast_t = _best_of(lambda: stats.max_common_neighbours(warm_graph))
        print(f"\nmax_common_neighbours: ref {ref_t:.5f}s fast {fast_t:.5f}s "
              f"-> {ref_t / fast_t:.1f}x")
        assert ref_t / fast_t >= MIN_KERNEL_SPEEDUP


class TestChungLuGeneration:
    def test_fast_generation_is_deterministic(self, warm_graph):
        model = ChungLuModel(warm_graph.degrees())
        first = model.generate(rng=7)
        second = model.generate(rng=7)
        assert first == second


#: Conservative floor for the accelerated metric-evaluation leg (the driver
#: measures ~5x at lastfm and epinions; the acceptance bar is 2x at the
#: epinions tier, asserted here at the CI-friendly lastfm tier with the
#: same generous slack policy as the kernel floors).
MIN_EVALUATION_SPEEDUP = 2.0


class TestMetricsAccelerator:
    """Accelerated evaluate leg vs the historical from-scratch path."""

    def test_evaluation_speedup_and_bit_identity(self, warm_graph):
        from repro.graphs.attributed import AttributedGraph
        from repro.metrics.evaluation import evaluate_synthetic_graph
        from repro.metrics.incremental import prepare_original_graph

        # Fresh copies: attaching an accelerator to the shared module
        # fixture would let later kernel timings serve from maintained
        # counts and distort their reference ratios.
        original = warm_graph.copy()
        scratch_original = warm_graph.copy()  # stays accelerator-free
        model = ChungLuModel(original.degrees())
        synthetics = []
        for seed in range(3):
            sample = AttributedGraph.from_graph_structure(
                model.generate(rng=seed), original.num_attributes
            )
            sample.set_all_attributes(original.attributes)
            synthetics.append(sample)

        prepare_original_graph(original)

        def scratch_leg():
            return [
                evaluate_synthetic_graph_reference(scratch_original,
                                                   sample.copy())
                for sample in synthetics
            ]

        def accelerated_leg():
            # Fresh copies per repeat: each evaluation pays the synthetic
            # side's one-time priming scan, the genuine steady-state cost.
            return [
                evaluate_synthetic_graph(original, sample.copy())
                for sample in synthetics
            ]

        assert accelerated_leg() == scratch_leg()
        ref_t = _best_of(scratch_leg, repeats=3)
        fast_t = _best_of(accelerated_leg, repeats=3)
        print(f"\nmetric evaluation: from-scratch {ref_t:.4f}s "
              f"accelerated {fast_t:.4f}s -> {ref_t / fast_t:.1f}x")
        assert ref_t / fast_t >= MIN_EVALUATION_SPEEDUP


class TestOrphanRepair:
    """Vectorized Algorithm 2 repair vs the scalar reference loop."""

    #: Conservative floor — the n=20k micro-tier measures ~3x+; the repair
    #: at this smaller CI-friendly tier keeps more fixed cost in the ratio.
    MIN_REPAIR_SPEEDUP = 1.5

    @pytest.fixture(scope="class")
    def repair_workload(self):
        from repro.datasets.synthetic import pokec_like
        from repro.models.chung_lu import build_pi_distribution

        reference = pokec_like(scale=0.017, seed=20160626)  # ~10k nodes
        desired = reference.degrees()
        seed_graph = ChungLuModel(
            desired, exclude_degree_one=True
        ).generate(rng=1)
        pi = build_pi_distribution(desired, exclude_degree_one=True)
        return seed_graph, desired, pi

    def test_repair_speedup_and_invariants(self, repair_workload):
        from repro.graphs.components import is_connected
        from repro.models.postprocess import post_process_graph

        seed_graph, desired, pi = repair_workload
        target = int(desired.sum() // 2)
        scalar = post_process_graph_scalar(seed_graph, desired, pi, rng=2)
        vector = post_process_graph(seed_graph, desired, pi, rng=2)
        assert scalar.num_edges == target
        assert vector.num_edges == target
        assert is_connected(scalar)
        assert is_connected(vector)
        ref_t = _best_of(lambda: post_process_graph_scalar(
            seed_graph, desired, pi, rng=2), repeats=3)
        fast_t = _best_of(lambda: post_process_graph(
            seed_graph, desired, pi, rng=2), repeats=3)
        print(f"\norphan_repair: scalar {ref_t:.4f}s vectorized {fast_t:.4f}s "
              f"-> {ref_t / fast_t:.1f}x")
        assert ref_t / fast_t >= self.MIN_REPAIR_SPEEDUP

    def test_vectorized_repair_is_deterministic(self, repair_workload):
        from repro.models.postprocess import post_process_graph

        seed_graph, desired, pi = repair_workload
        first = post_process_graph(seed_graph, desired, pi, rng=5)
        second = post_process_graph(seed_graph, desired, pi, rng=5)
        assert first == second


#: The serving guard stack (rate limiter, admission queue, deadline, budget
#: pre-check, executor handoff) may cost at most this fraction of a warm
#: cache-hit sample request.
MAX_GUARD_OVERHEAD = 0.05

#: Conservative wire-format floors (scripts/bench_perf.py records ~30x for
#: the encoder alone and ~1.4x end-to-end on a single core; generous slack
#: keeps CI robust).  The absolute floor is ~4x below the single-core
#: measurement — the seed's urllib-per-request client measured ~62 req/s,
#: so even the floor certifies a regression-free serving path.
MIN_ENCODE_SPEEDUP = 5.0
MIN_BINARY_WIRE_SPEEDUP = 1.1
MIN_WARM_SAMPLE_RPS = 40.0


class TestWireCodec:
    """The binary columnar codec vs the JSON wire path."""

    @pytest.fixture(scope="class")
    def served(self):
        """A warm server plus one sampled graph for encoder micro-timing."""
        from repro.api import ReleaseSession, ReleaseSpec
        from repro.service import ReleaseServer

        spec = {
            "spec_version": 1,
            "dataset": "lastfm", "scale": 0.35, "seed": 20160626,
            "epsilon": 1.0, "backend": "fcl", "num_iterations": 1,
        }
        session = ReleaseSession()
        artifact = session.fit(ReleaseSpec.from_dict(spec))
        graph = session.sample(artifact, count=1, seed=0)[0]
        with ReleaseServer(port=0, workers=2, session=session) as server:
            yield spec, graph, server

    def test_encoder_speedup_and_size(self, served):
        from repro.graphs import codec
        from repro.graphs.io import graph_to_payload

        _spec, graph, _server = served
        meta = {"count": 1, "seed": 0}

        def encode_json():
            return codec.dumps_json(
                {**meta, "graphs": [graph_to_payload(graph)]}
            ).encode("utf-8")

        def encode_binary():
            return codec.encode_response(meta, [graph])

        json_body = encode_json()
        binary_body = encode_binary()
        decoded = codec.decode_response(binary_body)["graphs"][0]
        assert graph_to_payload(decoded) == graph_to_payload(graph)
        assert len(binary_body) < len(json_body) / 2

        json_t = _best_of(encode_json)
        binary_t = _best_of(encode_binary)
        print(f"\nwire encode: json {json_t * 1e3:.3f}ms "
              f"binary {binary_t * 1e3:.3f}ms "
              f"-> {json_t / binary_t:.1f}x  "
              f"({len(json_body)} -> {len(binary_body)} bytes)")
        assert json_t / binary_t >= MIN_ENCODE_SPEEDUP

    def test_warm_sample_throughput_floor(self, served):
        import http.client
        import json as json_module

        from repro.graphs import codec

        spec, _graph, server = served
        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=120)

        def post(accept, seed):
            headers = {"Content-Type": "application/json"}
            if accept:
                headers["Accept"] = accept
            conn.request(
                "POST", "/sample",
                json_module.dumps(
                    {"spec": spec, "count": 1, "seed": seed}
                ).encode("utf-8"),
                headers,
            )
            response = conn.getresponse()
            body = response.read()
            assert response.status == 200
            return body

        def loop(accept):
            for seed in range(20):
                post(accept, seed)

        try:
            loop(None)  # warm both paths (and the codec import)
            loop(codec.CONTENT_TYPE_BINARY)
            json_t = _best_of(lambda: loop(None), repeats=3)
            binary_t = _best_of(lambda: loop(codec.CONTENT_TYPE_BINARY),
                                repeats=3)
        finally:
            conn.close()
        json_rps = 20 / json_t
        binary_rps = 20 / binary_t
        print(f"\nwarm /sample keep-alive: json {json_rps:.1f} req/s  "
              f"binary {binary_rps:.1f} req/s "
              f"-> {binary_rps / json_rps:.2f}x")
        assert binary_rps >= MIN_WARM_SAMPLE_RPS
        assert binary_rps / json_rps >= MIN_BINARY_WIRE_SPEEDUP


class TestServiceGuardOverhead:
    def test_warm_path_overhead_under_five_percent(self):
        from repro.service import ReleaseServer

        spec = {
            "spec_version": 1,
            "dataset": "lastfm", "scale": 0.2, "seed": 7,
            "epsilon": 1.0, "backend": "fcl", "num_iterations": 1,
        }
        batch = 20
        with ReleaseServer(port=0, workers=2, request_timeout=300.0,
                           rate_limit=1e9, rate_burst=10**6,
                           queue_depth=64) as server:
            server.execute("fit", spec)  # warm the artifact cache

            def guarded():
                for seed in range(batch):
                    payload = {"spec": spec, "count": 1, "seed": seed}
                    assert server.execute("sample", payload)["cache_hit"]

            def bare():
                for seed in range(batch):
                    payload = {"spec": spec, "count": 1, "seed": seed}
                    assert server.sample_job(payload)["cache_hit"]

            guarded()  # warm both paths before timing
            bare()
            guarded_t = _best_of(guarded)
            bare_t = _best_of(bare)
        overhead = guarded_t / bare_t - 1.0
        print(f"\nservice guard stack: bare {bare_t / batch * 1e3:.3f}ms/req "
              f"guarded {guarded_t / batch * 1e3:.3f}ms/req "
              f"-> overhead {overhead * 100:+.2f}%")
        assert overhead < MAX_GUARD_OVERHEAD


#: Generation wall-clock regression bar against the recorded trajectory
#: (BENCH_perf.json).  Conservative on purpose, like the speedup floors
#: above: the best historical mark was set under whatever load the bench
#: container had that day, and pristine checkouts re-measure 5-15% off it
#: on other days, so a tight bar flakes on machine drift rather than
#: catching code regressions.  Real regressions this bar is for
#: (an accidental O(m) -> O(m log m) or a lost vectorized path) blow
#: straight past it.
MAX_GENERATION_WALL_REGRESSION = 1.35


def _load_bench_driver():
    """Import scripts/bench_perf.py (not a package) for bench_generation."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "scripts" / "bench_perf.py"
    spec = importlib.util.spec_from_file_location("bench_perf_driver", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _historical_generation_walls(tier):
    """Best and latest recorded wall seconds for ``tier``, or (None, None)."""
    import json
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "BENCH_perf.json"
    if not path.exists():
        return None, None
    walls = [
        row["wall_seconds"]
        for entry in json.loads(path.read_text()).get("entries", [])
        for row in (entry.get("generation") or [])
        if row.get("tier") == tier
    ]
    if not walls:
        return None, None
    return min(walls), walls[-1]


class TestGenerationBudget:
    """Memory-budgeted generation: peak RSS under budget, wall non-regression.

    Each tier runs once in a fresh subprocess (via the driver's
    ``bench_generation``) with ``REPRO_MEMORY_BUDGET_MB`` set to the
    registry's declared tier budget; the measured peak RSS must stay under
    the budget and the wall time must stay within
    ``MAX_GENERATION_WALL_REGRESSION`` of the best mark recorded in the
    ``BENCH_perf.json`` trajectory.
    """

    #: (tier, budget MB): pokec budgets come from the registry's
    #: generation_tiers table; epinions has no table entry — its full-scale
    #: generation fits comfortably in the pokec-0.1 class.
    TIERS = [("pokec-0.1", None), ("epinions", 512)]

    @pytest.mark.parametrize("tier,budget_mb", TIERS)
    def test_generation_under_budget_and_wall(self, tier, budget_mb):
        from repro.datasets.registry import get_dataset_spec

        if budget_mb is None:
            dataset, scale = tier.split("-")[0], float(tier.split("-")[1])
            # 25% headroom over the registry's expected-footprint figure.
            expected = get_dataset_spec(dataset).generation_tiers[scale][2]
            budget_mb = int(expected * 1.25)

        driver = _load_bench_driver()
        report = driver.bench_generation(tier, memory_budget_mb=budget_mb)
        best_wall, _latest_wall = _historical_generation_walls(tier)
        mark = (f"historical best {best_wall:.1f}s"
                if best_wall is not None else "no historical mark")
        print(f"\ngeneration {tier}: {report['wall_seconds']:.1f}s  "
              f"peak RSS {report['peak_rss_mb']:.0f}/{budget_mb} MB  "
              f"({mark})")
        assert report["under_budget"], (
            f"{tier} peak RSS {report['peak_rss_mb']:.0f} MB exceeded the "
            f"{budget_mb} MB budget"
        )
        if best_wall is not None:
            assert report["wall_seconds"] <= (
                MAX_GENERATION_WALL_REGRESSION * best_wall
            ), (
                f"{tier} generation wall {report['wall_seconds']:.1f}s "
                f"regressed past {MAX_GENERATION_WALL_REGRESSION:.2f}x the "
                f"best recorded mark {best_wall:.1f}s"
            )

    def test_recorded_budget_entries_stayed_under_budget(self):
        """Every budget-carrying generation entry in the trajectory passed."""
        import json
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "BENCH_perf.json"
        if not path.exists():
            pytest.skip("no BENCH_perf.json trajectory")
        offenders = [
            (entry.get("date"), row["tier"], row["peak_rss_mb"],
             row["memory_budget_mb"])
            for entry in json.loads(path.read_text()).get("entries", [])
            for row in (entry.get("generation") or [])
            if "memory_budget_mb" in row and not row.get("under_budget")
        ]
        assert not offenders, (
            f"generation entries exceeded their declared budget: {offenders}"
        )
