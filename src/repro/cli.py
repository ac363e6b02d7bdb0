"""Command-line interface.

``repro-agm`` (or ``python -m repro``) is a thin client of the public API
(:mod:`repro.api`): every command that drives the synthesis workflow builds
a validated :class:`~repro.api.ReleaseSpec` and hands it to a
:class:`~repro.api.ReleaseSession`.  The commands:

* ``run`` — execute a config-file-driven Monte-Carlo run through the staged
  synthesis pipeline (parallel workers, per-stage ε ledger, run manifest);
* ``synthesize`` — fit AGM-DP to an input graph (a registered dataset or an
  edge-list / attribute-table pair) and write a synthetic graph;
* ``serve`` — start the HTTP synthesis service (fit once over ``POST /fit``,
  then sample many over ``POST /sample`` at no additional privacy cost), with
  optional persistent per-tenant ε ledgers, deadlines and rate limits;
* ``sample`` — act as a client of a running service: sample graphs by spec
  or artifact id through the retrying backoff client;
* ``evaluate`` — print the Table 2-5 metric row for a dataset at one or more
  privacy budgets;
* ``datasets`` — print the Table 6 summary of the registered datasets;
* ``figure`` — print the data behind one of the paper's figures.

``run`` config files are :meth:`ReleaseSpec.to_json` documents; every field
is optional except the input::

    {
      "spec_version": 1,
      "dataset": "lastfm", "scale": 0.2, "seed": 7,
      "epsilon": 1.0, "backend": "tricycle",
      "budget_split": {"attributes": 0.25, "correlations": 0.25,
                       "structural": 0.5, "structural_degree_fraction": 0.5},
      "trials": 8, "workers": 4, "num_iterations": 2,
      "output": "run_result.json"
    }

Un-versioned legacy config dicts (no ``"spec_version"``) are still accepted,
with a :class:`DeprecationWarning`.  ``--trials/--workers/--output`` flags
beat the config file; the merge happens in
:meth:`~repro.api.ReleaseSpec.with_overrides`, so the CLI and the service
resolve precedence identically.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.api import ReleaseSession, ReleaseSpec, SpecValidationError
from repro.core.backends import BACKENDS
from repro.datasets.registry import dataset_names
from repro.experiments.figures import (
    figure1_truncation_heuristic,
    figure5_correlation_methods,
)
from repro.experiments.tables import (
    dataset_properties_table,
    format_table,
    results_table,
)
from repro.graphs.io import load_attributed_graph, save_graph_json, write_edge_list
from repro.utils.logging import configure_basic_logging


def _add_input_arguments(parser: argparse.ArgumentParser) -> None:
    """Arguments shared by commands that take an input graph."""
    parser.add_argument(
        "--dataset", choices=dataset_names(), default=None,
        help="name of a registered synthetic dataset",
    )
    parser.add_argument("--edges", default=None, help="path to an edge-list file")
    parser.add_argument(
        "--attributes", default=None, help="path to a node-attribute table file"
    )
    parser.add_argument(
        "--scale", type=float, default=None,
        help="generation scale for registered datasets",
    )
    parser.add_argument("--seed", type=int, default=0, help="random seed")


def _input_spec_fields(args: argparse.Namespace) -> dict:
    """Map the shared input arguments onto :class:`ReleaseSpec` fields."""
    if args.edges:
        return {"edges": args.edges, "attributes": args.attributes,
                "seed": args.seed}
    return {"dataset": args.dataset or "lastfm", "scale": args.scale,
            "seed": args.seed}


def _load_input_graph(args: argparse.Namespace):
    """Load the input graph from either the registry or user-supplied files."""
    return ReleaseSpec(**_input_spec_fields(args)).load_graph()


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-agm",
        description="Differentially private synthesis of attributed social graphs "
                    "(AGM-DP / TriCycLe).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser(
        "run", help="execute a config-driven Monte-Carlo run through the "
                    "staged synthesis pipeline"
    )
    run.add_argument("--config", required=True,
                     help="path to a JSON release spec (ReleaseSpec.to_json)")
    run.add_argument("--trials", type=int, default=None,
                     help="override the config's trial count")
    run.add_argument("--workers", type=int, default=None,
                     help="override the config's worker-process count")
    run.add_argument("--output", default=None,
                     help="override the config's output path "
                          "(default: print to stdout)")

    synthesize = subparsers.add_parser(
        "synthesize", help="fit AGM-DP and write a synthetic graph"
    )
    _add_input_arguments(synthesize)
    synthesize.add_argument("--epsilon", type=float, default=1.0,
                            help="privacy budget (default 1.0)")
    synthesize.add_argument("--backend", choices=BACKENDS,
                            default="tricycle")
    synthesize.add_argument("--output", required=True,
                            help="output path (.json for full graph, otherwise "
                                 "an edge list is written)")

    serve = subparsers.add_parser(
        "serve", help="start the HTTP synthesis service (fit once over POST "
                      "/fit, sample many over POST /sample)"
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8008,
                       help="bind port (default 8008)")
    serve.add_argument("--workers", type=int, default=4,
                       help="compute worker threads (default 4)")
    serve.add_argument("--ledger-dir", default=None,
                       help="directory for persistent per-tenant ε ledgers "
                            "(default: in-memory accounting only)")
    serve.add_argument("--tenant-budget", type=float, default=None,
                       help="default per-tenant ε budget enforced by the "
                            "ledger (requires --ledger-dir)")
    serve.add_argument("--request-timeout", type=float, default=None,
                       help="per-request deadline in seconds (default: "
                            "REPRO_REQUEST_TIMEOUT, else none)")
    serve.add_argument("--rate-limit", type=float, default=None,
                       help="per-tenant request rate limit in requests/s "
                            "(default: unlimited)")
    serve.add_argument("--rate-burst", type=float, default=None,
                       help="token-bucket burst capacity (default: "
                            "2x the rate limit)")
    serve.add_argument("--queue-depth", type=int, default=None,
                       help="admission-queue bound on in-flight jobs "
                            "(default: 4x workers)")
    serve.add_argument("--processes", type=int, default=1,
                       help="serving processes sharing the port via "
                            "SO_REUSEPORT (default 1; >1 scales warm "
                            "/sample throughput with cores)")
    serve.add_argument("--artifact-dir", default=None,
                       help="directory for the persistent on-disk artifact "
                            "store (shared across restarts and across "
                            "--processes workers; default: memory only)")

    sample = subparsers.add_parser(
        "sample", help="sample synthetic graphs from a running service "
                       "(retrying client with backoff + Retry-After)"
    )
    sample.add_argument("--url", default="http://127.0.0.1:8008",
                        help="base URL of the service "
                             "(default http://127.0.0.1:8008)")
    sample.add_argument("--spec", default=None,
                        help="path to a JSON release spec to fit/sample")
    sample.add_argument("--artifact-id", default=None,
                        help="sample from an already-fitted artifact instead")
    sample.add_argument("--count", type=int, default=1,
                        help="number of graphs to sample (default 1)")
    sample.add_argument("--seed", type=int, default=None,
                        help="sampling seed (default: server default)")
    sample.add_argument("--tenant", default=None,
                        help="tenant to bill the fit's ε to (default: the "
                             "spec's tenant, else the server default)")
    sample.add_argument("--output", default=None,
                        help="write the JSON response here (default: stdout)")
    sample.add_argument("--codec", choices=("json", "binary"),
                        default="json",
                        help="wire codec: 'binary' negotiates the columnar "
                             "npy format (faster for large graphs); the "
                             "printed/written result is JSON either way")
    sample.add_argument("--stream", action="store_true",
                        help="stream the response graph-by-graph (binary "
                             "codec only)")

    evaluate = subparsers.add_parser(
        "evaluate", help="print Table 2-5 style metrics for a dataset"
    )
    _add_input_arguments(evaluate)
    evaluate.add_argument("--epsilon", type=float, nargs="*", default=None,
                          help="privacy budgets (default: the paper's values)")
    evaluate.add_argument("--trials", type=int, default=None,
                          help="Monte-Carlo trials per cell")

    datasets = subparsers.add_parser(
        "datasets", help="print the Table 6 dataset summary"
    )
    datasets.add_argument("--scale", type=float, default=None)
    datasets.add_argument("--seed", type=int, default=0)

    figure = subparsers.add_parser(
        "figure", help="print the data behind one of the paper's figures"
    )
    _add_input_arguments(figure)
    figure.add_argument("number", choices=("1", "5"),
                        help="figure number (1: truncation heuristic, "
                             "5: correlation estimators)")
    figure.add_argument("--trials", type=int, default=None)

    return parser


def _command_run(args: argparse.Namespace) -> int:
    spec = ReleaseSpec.from_json_file(args.config)
    # Explicit flags beat the config file; ReleaseSpec.with_overrides is the
    # single merge point shared with the service.
    spec = spec.with_overrides(trials=args.trials, workers=args.workers,
                               output=args.output)

    result = ReleaseSession().evaluate(spec)

    rendered = json.dumps(result, indent=2, default=str)
    if spec.output:
        with open(spec.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        print(f"wrote {result['model']} run result "
              f"({result['trials']} trials, {result['workers']} workers) "
              f"to {spec.output}")
    else:
        print(rendered)
    return 0


def _command_synthesize(args: argparse.Namespace) -> int:
    spec = ReleaseSpec(
        **_input_spec_fields(args),
        epsilon=args.epsilon,
        backend=args.backend,
    )
    session = ReleaseSession()
    artifact = session.fit(spec)
    synthetic = session.sample(artifact, count=1, seed=spec.seed)[0]
    if args.output.endswith(".json"):
        save_graph_json(synthetic, args.output)
    else:
        write_edge_list(synthetic, args.output)
    print(
        f"wrote synthetic graph with {synthetic.num_nodes} nodes and "
        f"{synthetic.num_edges} edges to {args.output}"
    )
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from repro.service import main as serve_main

    return serve_main(
        host=args.host, port=args.port, workers=args.workers,
        processes=args.processes,
        ledger_dir=args.ledger_dir, tenant_budget=args.tenant_budget,
        request_timeout=args.request_timeout, rate_limit=args.rate_limit,
        rate_burst=args.rate_burst, queue_depth=args.queue_depth,
        artifact_dir=args.artifact_dir,
    )


def _command_sample(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient, ServiceClientError

    if (args.spec is None) == (args.artifact_id is None):
        print("error: give exactly one of --spec or --artifact-id",
              file=sys.stderr)
        return 2
    if args.stream and args.codec != "binary":
        print("error: --stream requires --codec binary", file=sys.stderr)
        return 2
    client = ServiceClient(args.url)
    spec_doc = None
    if args.spec is not None:
        spec_doc = ReleaseSpec.from_json_file(args.spec).to_dict()
        if args.tenant is not None:
            spec_doc["tenant"] = args.tenant
    try:
        if args.codec == "binary":
            from repro.graphs.io import graph_to_payload

            meta, graphs = client.sample_binary(
                spec=spec_doc, artifact_id=args.artifact_id,
                count=args.count, seed=args.seed, stream=args.stream,
            )
            # The wire was columnar; the printed/written document keeps the
            # JSON response shape so downstream tooling sees one format.
            result = {**meta,
                      "graphs": [graph_to_payload(g) for g in graphs]}
        elif args.spec is not None:
            result = client.sample(spec=spec_doc, count=args.count,
                                   seed=args.seed)
        else:
            result = client.sample(artifact_id=args.artifact_id,
                                   count=args.count, seed=args.seed)
    except ServiceClientError as exc:
        code = exc.code or "unreachable"
        print(f"error [{code}]: {exc}", file=sys.stderr)
        return 1
    rendered = json.dumps(result, indent=2, default=str)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        print(f"wrote {result['count']} sampled graph(s) from "
              f"{result['artifact_id']} to {args.output}")
    else:
        print(rendered)
    return 0


def _command_evaluate(args: argparse.Namespace) -> int:
    dataset = args.dataset or "lastfm"
    graph = _load_input_graph(args) if args.edges else None
    rows = results_table(
        dataset,
        epsilons=args.epsilon,
        trials=args.trials,
        scale=args.scale,
        seed=args.seed,
        graph=graph,
    )
    print(format_table(rows))
    return 0


def _command_datasets(args: argparse.Namespace) -> int:
    rows = dataset_properties_table(scale=args.scale, seed=args.seed)
    print(format_table(rows))
    return 0


def _command_figure(args: argparse.Namespace) -> int:
    dataset = args.dataset or "lastfm"
    graph = _load_input_graph(args) if args.edges else None
    if args.number == "1":
        rows = figure1_truncation_heuristic(
            dataset, trials=args.trials, scale=args.scale, seed=args.seed, graph=graph
        )
    else:
        rows = figure5_correlation_methods(
            dataset, trials=args.trials, scale=args.scale, seed=args.seed, graph=graph
        )
    print(json.dumps(rows, indent=2, default=str))
    return 0


_COMMANDS = {
    "run": _command_run,
    "synthesize": _command_synthesize,
    "serve": _command_serve,
    "sample": _command_sample,
    "evaluate": _command_evaluate,
    "datasets": _command_datasets,
    "figure": _command_figure,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    configure_basic_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SpecValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via tests of main()
    sys.exit(main())
