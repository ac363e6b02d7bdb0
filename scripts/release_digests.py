"""Print a sha256 digest of each release-path output, one ``name digest`` line each.

Two checkouts that print the same lines produce bit-identical outputs, so a
change that claims to keep every output runs this in both and diffs::

    PYTHONPATH=src python scripts/release_digests.py > change.txt
    (cd ../parent && PYTHONPATH=src python scripts/release_digests.py) > parent.txt
    diff parent.txt change.txt

The outputs covered:

* ``load_dataset`` of the four registered datasets at scale 0.05, seed 0
  (edges and attributes);
* at pokec-0.01, for the ``tricycle`` and ``fcl`` backends at spec seeds 3
  and 11: the fitted artifact id and the artifact's fit manifest (without
  its ``timings``), then for each graph of ``sample(count=2)`` its edge
  arrays, its attributes and its ``evaluate_synthetic_graph`` report row;
* at pokec-0.01, for both backends, private (ε = 1) and non-private (the
  runner's prefit-parameters path), with ``trials=2``, ``samples=2`` and
  ``workers=1``: the averaged report row and spends of
  ``ReleaseSession.evaluate``, and, from the Monte-Carlo runner it
  delegates to, each trial's report row and its manifest's spends,
  allocations and splits;
* ``TriCycLeModel``, the oracle ``SequentialTriCycLeModel`` and
  ``TclModel`` generated from the pokec-0.01 graph's degrees and triangle
  count (TCL: its estimated closure probability), without and with an
  acceptance vector over the graph's attribute codes.

``--toy`` shrinks every input (datasets at scale 0.01, releases and models
at pokec-0.002) and runs in seconds.  Digests hash values widened to int64,
so they do not depend on storage widths.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from typing import Iterator, Tuple

import numpy as np

from repro.api import ReleaseSession, ReleaseSpec
from repro.attributes.encoding import AttributeEncoder, EdgeConfigurationEncoder
from repro.datasets.registry import dataset_names, load_dataset
from repro.experiments.runner import run_trials_detailed
from repro.graphs.attributed import AttributedGraph
from repro.metrics.evaluation import evaluate_synthetic_graph
from repro.models.base import EdgeAcceptance
from repro.models.tcl import TclModel, estimate_transitive_closure_probability
from repro.models.tricycle import TriCycLeModel
from repro.params.structural import fit_tricycle
from repro.testing.reference import SequentialTriCycLeModel

BACKENDS = ("tricycle", "fcl")
SPEC_SEEDS = (3, 11)
SAMPLE_COUNT = 2
EPSILON = 1.0
EVALUATE_SEED = 5


def _digest(*parts: bytes) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(len(part).to_bytes(8, "little"))
        digest.update(part)
    return digest.hexdigest()


def _array(values: np.ndarray) -> bytes:
    wide = np.ascontiguousarray(values, dtype=np.int64)
    return repr(wide.shape).encode() + wide.tobytes()


def edges_digest(graph: AttributedGraph) -> str:
    us, vs = graph.edge_arrays()
    return _digest(str(graph.num_nodes).encode(), _array(us), _array(vs))


def attributes_digest(graph: AttributedGraph) -> str:
    return _digest(_array(graph.attributes))


def graph_digest(graph: AttributedGraph) -> str:
    return _digest(edges_digest(graph).encode(),
                   attributes_digest(graph).encode())


def text_digest(text: str) -> str:
    return _digest(text.encode("utf-8"))


def json_digest(document) -> str:
    return text_digest(json.dumps(document, sort_keys=True))


def without_timings(manifest: dict) -> dict:
    return {key: value for key, value in manifest.items()
            if key != "timings"}


def _acceptance(graph: AttributedGraph) -> EdgeAcceptance:
    """A fixed acceptance vector over ``graph``'s attribute codes."""
    width = graph.num_attributes
    size = EdgeConfigurationEncoder(width).num_configurations
    return EdgeAcceptance(
        probabilities=np.linspace(0.3, 1.0, size),
        node_codes=AttributeEncoder(width).encode_matrix(graph.attributes),
        num_attributes=width,
    )


def digests(toy: bool) -> Iterator[Tuple[str, str]]:
    dataset_scale = 0.01 if toy else 0.05
    for name in dataset_names():
        graph = load_dataset(name, scale=dataset_scale, seed=0)
        yield f"dataset/{name}-{dataset_scale:g}", graph_digest(graph)

    pokec_scale = 0.002 if toy else 0.01
    pokec = load_dataset("pokec", scale=pokec_scale, seed=0)
    for backend in BACKENDS:
        for spec_seed in SPEC_SEEDS:
            prefix = f"release/pokec-{pokec_scale:g}/{backend}/seed-{spec_seed}"
            spec = ReleaseSpec(dataset="pokec", scale=pokec_scale,
                               epsilon=EPSILON, backend=backend,
                               seed=spec_seed)
            artifact = ReleaseSession().fit(spec, graph=pokec.copy())
            yield f"{prefix}/artifact_id", text_digest(artifact.artifact_id)
            yield (f"{prefix}/fit_manifest",
                   json_digest(without_timings(artifact.manifest)))
            samples = artifact.sample(count=SAMPLE_COUNT,
                                      seed=1000 + spec_seed)
            for index, sample in enumerate(samples):
                row = evaluate_synthetic_graph(pokec.copy(), sample.copy())
                yield f"{prefix}/sample-{index}/edges", edges_digest(sample)
                yield (f"{prefix}/sample-{index}/attributes",
                       attributes_digest(sample))
                yield (f"{prefix}/sample-{index}/report",
                       json_digest(row.as_paper_row()))

    for backend in BACKENDS:
        for epsilon in (EPSILON, None):
            privacy = "private" if epsilon is not None else "non-private"
            prefix = f"evaluate/pokec-{pokec_scale:g}/{backend}/{privacy}"
            spec = ReleaseSpec(dataset="pokec", scale=pokec_scale,
                               epsilon=epsilon, backend=backend,
                               seed=EVALUATE_SEED, trials=2, samples=2,
                               workers=1)
            result = ReleaseSession().evaluate(spec, graph=pokec.copy())
            yield f"{prefix}/session", json_digest(
                {key: result[key] for key in ("model", "report", "spends")})
            outcome = run_trials_detailed(pokec.copy(), spec.pipeline(),
                                          spec.trials, rng=spec.seed,
                                          workers=spec.workers)
            for index, (report, manifest) in enumerate(
                    zip(outcome.trial_reports, outcome.manifests)):
                yield (f"{prefix}/trial-{index}/report",
                       json_digest(report.as_paper_row()))
                yield (f"{prefix}/trial-{index}/budget",
                       json_digest([manifest.spends, manifest.allocations,
                                    manifest.splits]))

    params = fit_tricycle(pokec)
    rho = estimate_transitive_closure_probability(pokec)
    models = {
        "tricycle": TriCycLeModel(params.degrees, params.num_triangles),
        "sequential-tricycle": SequentialTriCycLeModel(
            params.degrees, params.num_triangles),
        "tcl": TclModel(params.degrees, rho),
    }
    acceptance = _acceptance(pokec)
    for name, model in models.items():
        prefix = f"model/pokec-{pokec_scale:g}/{name}"
        yield prefix, edges_digest(model.generate(rng=5))
        yield (f"{prefix}+acceptance",
               edges_digest(model.generate(rng=5, acceptance=acceptance)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--toy", action="store_true",
                        help="shrink every input (runs in seconds)")
    args = parser.parse_args()
    for name, digest in digests(args.toy):
        print(name, digest, flush=True)


if __name__ == "__main__":
    main()
