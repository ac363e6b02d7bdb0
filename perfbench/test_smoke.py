"""Smoke test of the benchmark at toy scale.

Runs every workload once untraced and once traced on tiny inputs and checks
that each prints every metric it promises, with its unit, and that every
correctness check passes.  From the repository root::

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

RELEASE_END_TO_END = {"setup_s": "s", "fit_s": "s", "sample_s": "s",
                      "evaluate_s": "s", "peak_rss_mb": "MiB",
                      "failed_frac": "ratio"}
SERVE_END_TO_END = {"setup_s": "s", "peak_rss_mb": "MiB",
                    "failed_frac": "ratio", "serve_rps": "req/s",
                    "serve_sample_p50_ms": "ms", "serve_fit_p50_ms": "ms"}

FIT_LAYERS = ("params.attributes_s", "params.correlations_s",
              "params.degrees_s", "api.session.fit_misses",
              "api.session.fit_miss_s", "datasets.load_s")
SAMPLE_LAYERS = ("core.agm.attribute_draw_s", "core.agm.observed_s",
                 "core.agm.acceptance_s", "core.agm.self_s",
                 "core.agm.generations", "models.chung_lu_s",
                 "models.chung_lu.calls", "models.chung_lu.edges")
TRICYCLE_LAYERS = ("params.triangles_s", "models.postprocess.seed_s",
                   "models.postprocess.final_s", "models.postprocess.calls",
                   "models.postprocess.orphans_in", "models.tricycle.rewire_s",
                   "models.tricycle.triangles_s")
SERVICE_LAYERS = ("service.execute_s", "graphs.codec.encode_s",
                  "graphs.codec.bytes_per_graph",
                  "api.session.fit_hits", "privacy.ledger.reserve_s",
                  "privacy.ledger.commit_s", "api.store.put_s",
                  "api.store.get_s")

#: Per workload: layers that must do work, and layers that must not.
LAYERS = {
    "release-tricycle": (FIT_LAYERS + SAMPLE_LAYERS + TRICYCLE_LAYERS
                         + ("metrics.prepare_s",), SERVICE_LAYERS),
    "release-fcl": (FIT_LAYERS + SAMPLE_LAYERS + ("metrics.prepare_s",),
                    TRICYCLE_LAYERS + SERVICE_LAYERS),
    "serve-mixed": (FIT_LAYERS + SAMPLE_LAYERS + SERVICE_LAYERS
                    + ("service.sample_model_s",), TRICYCLE_LAYERS),
}


def run(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "4", "--seconds", "2", "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    prefix = "perfbench report "
    assert lines[-2].startswith(prefix)
    return json.loads(lines[-1]), json.loads(lines[-2][len(prefix):])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload",
                         [entry["name"] for entry in BENCHMARK["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    result, report = run(workload, trace)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, report["failures"]
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} \
        == {entry["name"]: entry["unit"] for entry in declared}
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())

    assert report["seed"] == 4
    assert set(report["fingerprint"]) >= {"nproc", "python", "numpy",
                                          "platform"}
    promised = SERVE_END_TO_END if workload == "serve-mixed" \
        else RELEASE_END_TO_END
    for name, unit in promised.items():
        assert report["metrics"][name]["unit"] == unit, name
    assert report["metrics"]["failed_frac"]["value"] == 0
    p99 = report["metrics"].get("serve_sample_p99_ms")
    assert p99 is None or p99["beyond"] >= 10

    if trace:
        layers = report["layers"]
        working, idle = LAYERS[workload]
        for name in working:
            assert layers[name]["value"] > 0, name
        for name in idle:
            assert layers[name]["value"] == 0, name
        assert "tracing_overhead" in report
        if workload.startswith("release"):
            assert report["split"]["coverage"] >= 0.9
        else:
            assert layers["service.outside_s"]["value"] > 0
