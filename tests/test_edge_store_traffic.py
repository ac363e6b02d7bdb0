"""Traffic guard: the release path never writes a graph edge by edge.

``AttributedGraph`` builds per-node neighbour sets (its write form) only
for edge-by-edge writers.  The release path builds every graph in bulk —
the dataset generators, the Chung-Lu seed, rewiring and repair install
their edge sets in one pass — so it should never build the sets or call
``add_edge`` / ``remove_edge``.  These tests count all three along dataset
loading and along fit → sample → evaluate → codec round trip for each
structural backend, and assert zero.  A positive control checks that the
counters see an edge-by-edge writer.
"""

from collections import Counter

import numpy as np
import pytest

from repro.api import ReleaseSession, ReleaseSpec
from repro.datasets.registry import load_dataset
from repro.graphs import codec
from repro.graphs.attributed import AttributedGraph
from repro.metrics.evaluation import evaluate_synthetic_graph
from repro.models.tcl import TclModel


@pytest.fixture
def edge_traffic(monkeypatch):
    """Counts of write-form builds and edge writes while the test runs."""
    counts = Counter()
    build = AttributedGraph._adj.fget
    add_edge = AttributedGraph.add_edge
    remove_edge = AttributedGraph.remove_edge

    def counted_build(graph):
        if graph._adj_sets is None:
            counts["set builds"] += 1
        return build(graph)

    def counted_add(graph, u, v):
        counts["add_edge"] += 1
        return add_edge(graph, u, v)

    def counted_remove(graph, u, v):
        counts["remove_edge"] += 1
        return remove_edge(graph, u, v)

    monkeypatch.setattr(AttributedGraph, "_adj", property(counted_build))
    monkeypatch.setattr(AttributedGraph, "add_edge", counted_add)
    monkeypatch.setattr(AttributedGraph, "remove_edge", counted_remove)
    return counts


@pytest.mark.parametrize("name,scale", [
    ("lastfm", 0.05), ("petster", 0.05), ("epinions", 0.05), ("pokec", 0.002),
])
def test_dataset_loading_builds_in_bulk(edge_traffic, name, scale):
    graph = load_dataset(name, scale, seed=0)
    assert graph.num_edges > 0
    assert edge_traffic == Counter()


@pytest.mark.parametrize("backend", ["tricycle", "fcl"])
def test_release_path_builds_in_bulk(edge_traffic, backend):
    spec = ReleaseSpec(dataset="lastfm", scale=0.1, seed=5, epsilon=1.0,
                       backend=backend, num_iterations=1)
    artifact = ReleaseSession().fit(spec)
    original = load_dataset("lastfm", 0.1, seed=5)
    for sample in artifact.sample(count=2, seed=3):
        report = evaluate_synthetic_graph(original, sample)
        assert np.isfinite(list(report.as_dict().values())).all()
        decoded = codec.decode_graph_block(codec.encode_graph_block(sample))
        assert decoded == sample
    assert edge_traffic == Counter()


def test_counters_see_an_edge_by_edge_writer(edge_traffic):
    degrees = load_dataset("lastfm", 0.05, seed=0).degrees()
    TclModel(degrees, rho=0.5).generate(rng=1)
    assert edge_traffic["set builds"] >= 1
    assert edge_traffic["add_edge"] > 0
    assert edge_traffic["remove_edge"] > 0
