"""Release-path benchmark: fit, sample, evaluate and serve.

Run from the root of a checkout::

    python3 perfbench/run.py --workload release-tricycle --seed 1 \\
        --seconds 35 --trace 0

Workloads: ``release-tricycle``, ``release-fcl`` (the library API in this
process, pokec-0.01) and ``serve-mixed`` (the ``repro serve`` daemon, lastfm).
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a separate
run with span wrappers at each layer boundary that reports the per-layer
metrics.  ``--toy`` shrinks every input for a smoke test.

Every run prints a ``perfbench report`` line (every metric by name with its
unit, the machine fingerprint, the seed, the correctness failures, and in
traced runs the ``sample_s`` split and the tracing overhead), then, as the
last line, the result object
``{"correct", "attempted", "failed", "metrics"}``.
See ``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

WORKLOADS = ("release-tricycle", "release-fcl", "serve-mixed")

#: Metrics of the untraced run (``--trace 0``), with their units.
END_TO_END = {
    "setup_s": "s",
    "fit_s": "s",
    "sample_s": "s",
    "peak_rss_mb": "MiB",
}

#: Metrics of the traced run (``--trace 1``) that every workload measures.
#: Times here do work on all three workloads; counts read 0 where their
#: layer does no work.  The report line carries every layer metric.
PER_LAYER = {
    "datasets.load_s": "s",
    "params.attributes_s": "s",
    "params.correlations_s": "s",
    "params.degrees_s": "s",
    "core.agm.attribute_draw_s": "s",
    "core.agm.observed_s": "s",
    "core.agm.acceptance_s": "s",
    "core.agm.self_s": "s",
    "core.agm.generations": "count",
    "models.chung_lu_s": "s",
    "models.chung_lu.calls": "count",
    "models.chung_lu.edges": "count",
    "models.postprocess.calls": "count",
    "models.postprocess.orphans_in": "count",
    "models.postprocess.orphans_out": "count",
    "models.tricycle.tau_gap": "count",
    "service.refused": "count",
    "graphs.codec.bytes_per_graph": "B",
    "api.session.fit_hits": "count",
    "api.session.fit_misses": "count",
    "api.session.fit_miss_s": "s",
}

#: ``PYTHONHASHSEED`` of every process that does measured work.  String
#: hashing orders some of the library's sets, and a served ``/fit`` or
#: ``/sample`` is up to a quarter slower in one process than in the next
#: for that reason alone.  One fixed hash seed keeps runs comparable.
HASH_SEED = "0"

#: Input sizes: (pokec scale for release-*, lastfm scale for serve-mixed).
FULL_SCALES = (0.01, 1.0)
TOY_SCALES = (0.004, 0.3)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "B" if name.endswith("bytes_per_graph") else "count"


def fingerprint() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs (smoke test)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Restart this interpreter in place (same process) with the hash
        # seed fixed; the serve workload's server inherits it.
        os.execve(sys.executable, [sys.executable, *sys.orig_argv[1:]],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    if not (Path("src") / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a checkout holding the library "
              "sources (src/repro)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path("src").resolve()))
    pokec_scale, lastfm_scale = TOY_SCALES if args.toy else FULL_SCALES
    traced = bool(args.trace)
    if args.workload == "serve-mixed":
        from serve import run_serve

        outcome = run_serve(args.seed, args.seconds, traced, lastfm_scale)
    else:
        from release import run_release

        backend = args.workload.split("-", 1)[1]
        outcome = run_release(backend, args.seed, args.seconds, traced,
                              pokec_scale)

    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "toy": args.toy,
              "fingerprint": fingerprint(), **outcome["report"]}
    if traced:
        report["layers"] = {name: {"value": value, "unit": layer_unit(name)}
                            for name, value in outcome["layers"].items()}
        metrics = {name: {"value": outcome["layers"][name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": outcome["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print("perfbench report " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": outcome["failed"] == 0,
                      "attempted": outcome["attempted"],
                      "failed": outcome["failed"],
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
