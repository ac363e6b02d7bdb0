"""The rewiring rows hold interned node ids."""

from repro.datasets.registry import load_dataset
from repro.models.rewiring import _SortedAdjacency


def test_rows_hold_one_int_object_per_node():
    graph = load_dataset("pokec", scale=0.004, seed=0)
    adjacency = _SortedAdjacency(graph)
    entries = [v for row in adjacency.lists for v in row]
    assert len(entries) == 2 * graph.num_edges
    assert len({id(v) for v in entries}) <= graph.num_nodes
    assert all(v is adjacency.ids[v] for v in entries)
    indptr, indices = graph.csr()
    assert entries == indices.tolist()
