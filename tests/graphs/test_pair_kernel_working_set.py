"""Working set and per-chunk cost of the pair kernels.

The triangle scans and the common-neighbour scans enumerate pairs in chunks
of at most ``_MAX_PAIRS_PER_CHUNK``.  What a scan holds before its chunk
loop starts (the membership index, the forward orientation, the heavy
lists) is O(n + m); the loop adds one chunk's temporaries.  These tests pin
that the loop's transient peak stays within a fixed multiple of one chunk's
int64 bytes, on inputs with at least 8 chunks of pairs, and that the
per-node census pays one length-n accumulation per about n hit members
rather than one per chunk.
"""

import math
import tracemalloc

import numpy as np
import pytest

import repro.graphs.statistics as stats
from repro.datasets.registry import load_dataset

#: A chunk loop may hold this many int64 arrays of one chunk's length.
CHUNK_ARRAYS = 10
#: The census's hit buffer, its concatenation and the bincount it feeds:
#: at most this many int64 arrays of length n on top.
CENSUS_ARRAYS = 3

SCALES = [0.01, pytest.param(0.1, marks=pytest.mark.slow)]


@pytest.fixture(scope="module", params=SCALES, ids=lambda s: f"pokec-{s:g}")
def pokec(request):
    graph = load_dataset("pokec", scale=request.param, seed=0)
    graph.csr()  # cached on the graph, so it is not counted as transient
    return graph


class _ChunkLoops:
    """Stands in for ``_iter_row_chunks`` and records, for every chunk
    loop, its chunk count and its traced peak above the memory held when
    its first chunk was handed out."""

    def __init__(self, original):
        self._original = original
        self.loops = []

    def __call__(self, pair_counts, max_pairs):
        chunks, base = 0, None
        try:
            for block in self._original(pair_counts, max_pairs):
                if base is None:
                    base = tracemalloc.get_traced_memory()[0]
                    tracemalloc.reset_peak()
                chunks += 1
                yield block
        finally:
            if base is not None:
                peak = tracemalloc.get_traced_memory()[1]
                self.loops.append((chunks, peak - base))


def _traced_loops(monkeypatch, scan):
    loops = _ChunkLoops(stats._iter_row_chunks)
    monkeypatch.setattr(stats, "_iter_row_chunks", loops)
    tracemalloc.start()
    try:
        scan()
    finally:
        tracemalloc.stop()
    return loops.loops


def _chunk_bytes():
    return CHUNK_ARRAYS * stats._MAX_PAIRS_PER_CHUNK * 8


@pytest.mark.parametrize("per_node", [False, True], ids=["totals", "census"])
def test_triangle_scan_loop_stays_within_its_chunks(monkeypatch, pokec,
                                                    per_node):
    [(chunks, transient)] = _traced_loops(
        monkeypatch, lambda: stats._triangle_scan(pokec, per_node))
    assert chunks >= 8
    allowance = CENSUS_ARRAYS * pokec.num_nodes * 8 if per_node else 0
    assert transient <= _chunk_bytes() + allowance


def test_max_common_neighbours_loops_stay_within_their_chunks(monkeypatch,
                                                              pokec):
    loops = _traced_loops(
        monkeypatch, lambda: stats._max_common_neighbours_scan(pokec))
    # The hub seed's probe loop, then the heavy-endpoint loop.
    assert len(loops) == 2
    assert loops[-1][0] >= 8
    for _chunks, transient in loops:
        assert transient <= _chunk_bytes()


def test_census_accumulates_once_per_n_members(monkeypatch):
    graph = load_dataset("pokec", scale=0.004, seed=0)
    n = graph.num_nodes
    expected = stats._triangle_scan(graph, per_node=True)
    triangles = expected[0]
    bincount = np.bincount
    lengths = []

    def counted(values, weights=None, minlength=0):
        lengths.append(minlength)
        return bincount(values, weights, minlength)

    monkeypatch.setattr(stats, "_MAX_PAIRS_PER_CHUNK", 64)
    monkeypatch.setattr(np, "bincount", counted)
    total, counts = stats._triangle_scan(graph, per_node=True)
    assert total == triangles
    assert np.array_equal(counts, expected[1])
    # One length-n bincount counts forward degrees; the rest accumulate
    # the census.
    accumulations = lengths.count(n) - 1
    assert accumulations <= math.ceil(3 * triangles / n) + 1
