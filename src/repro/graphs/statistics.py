"""Exact structural statistics of attributed graphs.

These are the non-private measurements the paper relies on: degree sequences
(Section 2.1), triangle and wedge counts, local and global clustering
coefficients (Section 5.1), and the per-pair common-neighbour maximum used by
the local sensitivity of triangle counting (Appendix C.3.2).

The public kernels are vectorized NumPy implementations over the graph's
cached CSR view (:meth:`repro.graphs.attributed.AttributedGraph.csr`):

* triangle statistics use a degree-ordered edge orientation, enumerate the
  pairs of forward neighbours of every node in bulk, and test each pair for
  adjacency against a partitioned bitmap membership index over the sorted
  directed-edge keys (:mod:`repro.utils.membership`; a ``searchsorted``
  pass above the bitmap's byte budget) rather than per-edge Python set
  intersections;
* ``max_common_neighbours`` is an exact heavy-endpoint scan.  Exact counts
  among the top hubs give a lower bound ``best``.  Since ``cn(u, v) ≤
  min(deg u, deg v)``, any pair with more than ``best`` common neighbours
  has both degrees above ``best``, so only the wedges whose two endpoints
  are such *heavy* nodes are enumerated, each heavy pair exactly once (the
  heavy/light split of worst-case-optimal joins);
* ``degree_ccdf`` is a single ``searchsorted`` over the sorted degree
  sequence.

On a graph whose statistics memo is on
(:meth:`~repro.graphs.attributed.AttributedGraph.enable_statistics_memo`),
the triangle kernels share one per-node census kept in the memo and
``max_common_neighbours`` keeps its result there, until the next edge or
attribute write clears it.  On any other graph every call scans afresh and
stores nothing: ``triangle_count`` runs the totals-only scan.

Pair enumeration runs in chunks of at most ``_MAX_PAIRS_PER_CHUNK`` pairs
(or probes), sized so that one chunk's temporaries fit a 2 MiB L2 cache.
Each chunk costs O(chunk): the per-node census buffers its hit members and
adds them to the length-n counts once per about n members, not once per
chunk.  On a 2-core Xeon with 2 MiB of L2 per core, 2^14-pair chunks cut
the pokec-0.01 triangle scan (140k pairs) from 13 to 7.5 ms and its traced
peak from 11.7 to 6.4 MiB, against one block holding every pair; 2^15 was
slower there and at pokec-0.1, and 2^13 no faster.  What a scan holds
outside the chunk loop (the membership index, the degree orientation) is
O(n + m).

The original pure-Python implementations live on as test-only oracles in
:mod:`repro.testing.reference` (``triangle_count_reference`` and friends);
the equivalence tests in ``tests/graphs/test_statistics_equivalence`` and
the perf harness (``scripts/bench_perf.py``) pin the kernels to them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.graphs.attributed import AttributedGraph
from repro.graphs.dtypes import edge_key_dtype, pack_edge_keys
from repro.utils import membership as membership_index

#: Upper bound on the number of pairs (or probes) materialised per chunk by
#: the pair kernels.  A chunk loop holds at most about ten int64 arrays of
#: this length at once (0.9 MiB measured at 2^14), so one chunk fits a
#: 2 MiB L2 cache.
_MAX_PAIRS_PER_CHUNK = 1 << 14

#: Hubs whose pairwise common-neighbour counts seed the lower bound of
#: :func:`max_common_neighbours` (16 hubs are 120 probed pairs).
_SEED_HUBS = 16


def degree_sequence(graph: AttributedGraph, sort: bool = False) -> np.ndarray:
    """Return the degree sequence of ``graph``.

    Parameters
    ----------
    graph:
        The input graph.
    sort:
        When true, return the sequence sorted in non-decreasing order — the
        form required by the constrained-inference estimator of Hay et al.
    """
    degrees = graph.degrees()
    if sort:
        degrees = np.sort(degrees)
    return degrees


# ----------------------------------------------------------------------
# CSR pair-enumeration machinery
# ----------------------------------------------------------------------
def _iter_row_chunks(pair_counts: np.ndarray, max_pairs: int
                     ) -> Iterator[np.ndarray]:
    """Yield contiguous row-id blocks whose total pair count is ≤ ``max_pairs``.

    A single row exceeding the budget is yielded alone (its enumeration is
    unavoidable); rows with zero pairs ride along with their neighbours.
    """
    n = pair_counts.size
    if n == 0:
        return
    cumulative = np.cumsum(pair_counts)
    start = 0
    while start < n:
        limit = (cumulative[start - 1] if start else 0) + max_pairs
        end = int(np.searchsorted(cumulative, limit, side="right"))
        if end <= start:
            end = start + 1
        yield np.arange(start, end, dtype=np.int64)
        start = end


def _segment_positions(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Positions ``starts[i] + 0 .. lengths[i] - 1``, segment after segment."""
    offsets = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    return offsets + np.arange(offsets.size, dtype=np.int64)


def _pairs_within_rows(indptr: np.ndarray, indices: np.ndarray,
                       rows: np.ndarray
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Enumerate all ordered position pairs ``i < j`` inside each CSR row.

    Returns ``(owners, firsts, seconds)`` where ``owners[p]`` is the row the
    pair came from and ``firsts[p]`` / ``seconds[p]`` are the row entries at
    positions ``i`` and ``j``.  Everything is a flat NumPy pass — no Python
    loop over rows or entries.  ``firsts`` / ``seconds`` keep the storage
    dtype of ``indices`` — widen before packing keys from them.
    """
    empty = np.empty(0, dtype=np.int64)
    starts = np.asarray(indptr[rows], dtype=np.int64)
    lengths = np.asarray(indptr[rows + 1], dtype=np.int64) - starts
    total_entries = int(lengths.sum())
    if total_entries == 0:
        return empty, empty, empty
    entry_rows = np.repeat(rows, lengths)
    entry_starts = np.repeat(starts, lengths)
    previous = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    entry_local = np.arange(total_entries, dtype=np.int64) \
        - np.repeat(previous, lengths)
    # Entry at local position j pairs with the j earlier entries of its row.
    pair_counts = entry_local
    total_pairs = int(pair_counts.sum())
    if total_pairs == 0:
        return empty, empty, empty
    firsts = indices[_segment_positions(entry_starts, pair_counts)]
    seconds = np.repeat(indices[entry_starts + entry_local], pair_counts)
    owners = np.repeat(entry_rows, pair_counts)
    return owners, firsts, seconds


#: Adjacency-membership factory used by the triangle kernels: a partitioned
#: packed bitmap over the canonical edge keys when the byte budget allows,
#: a searchsorted pass over the sorted keys otherwise (see
#: :mod:`repro.utils.membership`).  Module-level binding so tests can force
#: the sorted fallback.
_membership_probe = membership_index.membership_probe


def _triangle_scan(graph: AttributedGraph, per_node: bool):
    """Shared core of :func:`triangle_count` and :func:`triangles_per_node`.

    Edges are oriented from the endpoint with smaller ``(degree, id)`` to
    the larger, so every node's forward degree is O(sqrt(m)) and every
    triangle is discovered exactly once — as the pair of forward neighbours
    of its unique doubly-outgoing node.  The pairs are enumerated in bulk
    and closed-pair adjacency is tested through the membership probe built
    over the (already sorted) canonical edge keys ``u * n + v`` with
    ``u < v`` — a partitioned packed bitmap within its byte budget, a
    ``searchsorted`` pass otherwise (:mod:`repro.utils.membership`).
    """
    n = graph.num_nodes
    counts = np.zeros(n, dtype=np.int64)
    if n == 0 or graph.num_edges == 0:
        return (0, counts)
    indptr, indices = graph.csr()
    degrees = np.diff(indptr)
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((np.arange(n), degrees))] = np.arange(n)
    sources = np.repeat(np.arange(n, dtype=np.int64), degrees)
    forward = rank[sources] < rank[indices]
    fdst = indices[forward]
    forward_degrees = np.bincount(sources[forward], minlength=n) if fdst.size \
        else np.zeros(n, dtype=np.int64)
    findptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(forward_degrees, out=findptr[1:])

    # Sources are non-decreasing and each CSR row is id-sorted, so the
    # canonical (upper-triangular) keys come out already sorted.
    upper = sources < indices
    edge_keys = (sources * n + indices)[upper]
    probe = _membership_probe(edge_keys)

    pair_totals = forward_degrees * (forward_degrees - 1) // 2
    # Pessimistic zero-bound: rows with fewer than two forward neighbours
    # contribute no pairs — drop them before chunking so sparse tails are
    # never materialised at all.
    active = np.flatnonzero(pair_totals)
    total = 0
    # Hit members wait here until about n of them pay for one length-n
    # bincount, so a chunk's work stays proportional to the chunk.
    pending: List[np.ndarray] = []
    buffered = 0
    for block in _iter_row_chunks(pair_totals[active], _MAX_PAIRS_PER_CHUNK):
        rows = active[block]
        owners, firsts, seconds = _pairs_within_rows(findptr, fdst, rows)
        if firsts.size == 0:
            continue
        # Forward rows inherit the CSR id order, so firsts < seconds and
        # the queries are canonical keys (widened before packing — the
        # entries carry the narrow storage dtype).
        queries = firsts.astype(np.int64) * n + seconds
        hits = probe(queries)
        found = int(np.count_nonzero(hits))
        total += found
        if per_node and found:
            pending += (owners[hits], firsts[hits], seconds[hits])
            buffered += 3 * found
            if buffered >= n:
                counts += np.bincount(np.concatenate(pending), minlength=n)
                pending.clear()
                buffered = 0
    if pending:
        counts += np.bincount(np.concatenate(pending), minlength=n)
    return (total, counts)


def _triangle_census(graph: AttributedGraph) -> Tuple[int, np.ndarray]:
    """``(total, per-node counts)`` from one per-node scan, memoized."""
    return graph.memoized(
        "triangles", lambda: _triangle_scan(graph, per_node=True)
    )


def triangle_count(graph: AttributedGraph) -> int:
    """Count the triangles in ``graph`` exactly.

    Vectorized over the CSR view: every triangle is discovered exactly once
    as a closed pair of forward neighbours under the degree orientation.
    With the statistics memo on, the count comes from the memoized per-node
    census; otherwise the totals-only scan runs.
    """
    if graph.statistics_memo is None:
        return _triangle_scan(graph, per_node=False)[0]
    return _triangle_census(graph)[0]


def triangles_per_node(graph: AttributedGraph) -> np.ndarray:
    """Return the number of triangles incident to every node."""
    return _triangle_census(graph)[1].copy()


def wedge_count(graph: AttributedGraph) -> int:
    """Count wedges (paths of length two), ``sum_v d_v * (d_v - 1) / 2``."""
    degrees = graph.degrees().astype(np.int64)
    return int((degrees * (degrees - 1) // 2).sum())


def _clustering_from_triangles(graph: AttributedGraph,
                               triangles: np.ndarray) -> np.ndarray:
    """Local clustering coefficients from per-node triangle counts.

    ``C_i = triangles_i / C(deg i, 2)``, and ``C_i = 0`` below degree two.
    Every clustering figure in the library goes through these float
    operations, so they agree bit for bit.
    """
    degrees = graph.degrees().astype(np.float64)
    possible = degrees * (degrees - 1) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(possible > 0, triangles / possible, 0.0)


def local_clustering_coefficients(graph: AttributedGraph) -> np.ndarray:
    """Return the local clustering coefficient ``C_i`` of every node.

    ``C_i`` is the fraction of pairs of neighbours of ``i`` that are
    themselves connected; nodes with degree below two have ``C_i = 0``.
    """
    return _clustering_from_triangles(graph, triangles_per_node(graph))


def average_local_clustering(graph: AttributedGraph) -> float:
    """Average of the local clustering coefficients, ``C̄`` in the paper."""
    if graph.num_nodes == 0:
        return 0.0
    return float(local_clustering_coefficients(graph).mean())


def global_clustering_coefficient(graph: AttributedGraph) -> float:
    """Global clustering coefficient (transitivity), ``C = 3 n_∆ / n_W``."""
    wedges = wedge_count(graph)
    if wedges == 0:
        return 0.0
    return 3.0 * triangle_count(graph) / wedges


def max_common_neighbours(graph: AttributedGraph) -> int:
    """Maximum number of common neighbours over all node pairs.

    This equals the local sensitivity of the triangle count under edge
    adjacency: adding or removing the edge ``{u, v}`` changes the triangle
    count by exactly ``cn(u, v) = |Γ(u) ∩ Γ(v)|``.  Only pairs at distance
    one or two need to be examined — any other pair has zero common
    neighbours.

    The scan is exact and rests on one bound: ``cn(u, v) ≤ min(deg u,
    deg v)``.

    1. Exact counts among the top ``_SEED_HUBS`` hubs
       (:func:`batched_common_neighbours`) seed a lower bound ``best``.
    2. Any pair with more than ``best`` common neighbours has both degrees
       above ``best``.  Those *heavy* nodes are ranked by descending
       degree, and every centre's heavy neighbours are kept sorted by rank.
       For each heavy endpoint ``u`` the scan gathers, from each centre
       ``w ∈ Γ(u)``, only the part of ``w``'s heavy list ranked after
       ``u``.  Partner ``v`` then occurs there exactly ``cn(u, v)`` times,
       so every heavy pair is counted once and completes inside ``u``'s
       chunk; only the running maximum crosses chunk boundaries.
    3. Endpoints are gathered in chunks of at most ``_MAX_PAIRS_PER_CHUNK``
       partners, in rank order.  The first chunk whose leading endpoint has
       ``deg(u) ≤ best`` proves the same for every later chunk, so the scan
       stops there.

    Each chunk is compressed with a sort plus boundary-diff pass.  The
    result is pinned to the oracle
    :func:`repro.testing.reference.max_common_neighbours_reference`.

    With the statistics memo on, the result is kept there.
    """
    return graph.memoized(
        "max_common_neighbours", lambda: _max_common_neighbours_scan(graph)
    )


def _max_common_neighbours_scan(graph: AttributedGraph) -> int:
    """The exact heavy-endpoint scan behind :func:`max_common_neighbours`."""
    n = graph.num_nodes
    if n == 0 or graph.num_edges == 0:
        return 0
    indptr, indices = graph.csr()
    # Widen once: the storage-ladder indptr is narrow unsigned, and the
    # negation and position arithmetic below need signed int64.
    indptr = np.asarray(indptr, dtype=np.int64)
    degrees = np.diff(indptr)
    by_degree = np.argsort(-degrees, kind="stable")

    # Lower bound from the hubs.  Every probed row is a hub row, so the
    # probe keys only need the hubs' directed edge keys; id-sorted hubs
    # with id-sorted rows give them already sorted.
    hubs = np.sort(by_degree[:_SEED_HUBS])
    hub_degrees = degrees[hubs]
    hub_keys = np.repeat(hubs, hub_degrees) * n \
        + indices[_segment_positions(indptr[hubs], hub_degrees)]
    first, second = np.triu_indices(hubs.size, k=1)
    best = int(batched_common_neighbours(
        n, indptr, indices, hub_keys, hubs[first], hubs[second]
    ).max())

    # Heavy endpoints in descending degree order: rank r is heavy[r].
    heavy = by_degree[:np.count_nonzero(degrees > best)]
    num_heavy = heavy.size
    if num_heavy < 2:
        return best
    heavy_degrees = degrees[heavy]
    # One entry (u, w) per heavy u and neighbour w, grouped by u's rank.
    entry_ptr = np.concatenate(([0], np.cumsum(heavy_degrees)))
    centres = indices[_segment_positions(indptr[heavy], heavy_degrees)]
    entry_ranks = np.repeat(
        np.arange(num_heavy, dtype=edge_key_dtype(num_heavy)), heavy_degrees
    )
    # Stable-sorting the entries by centre lists every centre's heavy
    # neighbours in rank order, and the entry (u, w) lands exactly where
    # u sits in w's list: the part ranked after u starts one step later.
    by_centre = np.argsort(centres, kind="stable")
    members = entry_ranks[by_centre]
    tail_starts = np.empty_like(by_centre)
    tail_starts[by_centre] = np.arange(1, by_centre.size + 1)
    centre_ends = np.cumsum(np.bincount(centres, minlength=n))
    tails = centre_ends[centres] - tail_starts
    volumes = np.diff(np.concatenate(([0], np.cumsum(tails)))[entry_ptr])

    for block in _iter_row_chunks(volumes, _MAX_PAIRS_PER_CHUNK):
        # cn(u, v) ≤ deg(u), non-increasing along the rank order.
        if int(heavy_degrees[block[0]]) <= best:
            break
        lo, hi = entry_ptr[block[0]], entry_ptr[block[-1] + 1]
        lengths = tails[lo:hi]
        partners = members[_segment_positions(tail_starts[lo:hi], lengths)]
        if partners.size == 0:
            continue
        keys = pack_edge_keys(
            np.repeat(entry_ranks[lo:hi], lengths), partners, num_heavy
        )
        keys.sort()
        runs = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        best = max(best, int(np.diff(np.append(runs, keys.size)).max()))
    return best


def batched_common_neighbours(num_nodes: int, indptr: np.ndarray,
                              indices: np.ndarray, sorted_keys: np.ndarray,
                              us: np.ndarray, vs: np.ndarray
                              ) -> np.ndarray:
    """Common-neighbour counts ``|Γ(u_p) ∩ Γ(v_p)|`` for parallel pair arrays.

    The kernel behind the hub seed of :func:`max_common_neighbours`.  For
    every pair the *shorter* sorted row is probed against the *longer* row
    through one global ``searchsorted`` over ``sorted_keys`` (the directed
    edge keys ``owner * num_nodes + neighbour`` in globally sorted order),
    so a whole block of pairs costs one binary-search pass of
    ``Σ_p min(deg u_p, deg v_p)`` probes instead of a Python-level
    intersection per pair.  Pairs are probed in chunks of at most
    ``_MAX_PAIRS_PER_CHUNK`` probes (a pair longer than that alone).

    Returns ``counts`` (``int64``, one entry per pair).
    """
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    num_pairs = int(us.size)
    counts = np.zeros(num_pairs, dtype=np.int64)
    lengths = np.diff(np.asarray(indptr, dtype=np.int64))
    if num_pairs == 0 or sorted_keys.size == 0:
        return counts
    du = lengths[us]
    dv = lengths[vs]
    u_shorter = du <= dv
    probe_side = np.where(u_shorter, us, vs)   # shorter row: enumerated
    anchor_side = np.where(u_shorter, vs, us)  # longer row: probed by key
    probe_lengths = np.minimum(du, dv)
    for block in _iter_row_chunks(probe_lengths, _MAX_PAIRS_PER_CHUNK):
        rows = probe_side[block]
        row_lengths = probe_lengths[block]
        if int(row_lengths.sum()) == 0:
            continue
        candidates = indices[_segment_positions(indptr[rows], row_lengths)]
        pair_offsets = np.repeat(block, row_lengths)
        probe_keys = anchor_side[pair_offsets] * num_nodes + candidates
        found = np.minimum(
            np.searchsorted(sorted_keys, probe_keys), sorted_keys.size - 1
        )
        hits = sorted_keys[found] == probe_keys
        counts[block] = np.bincount(
            pair_offsets[hits] - int(block[0]), minlength=block.size
        )
    return counts


@dataclass(frozen=True)
class GraphSummary:
    """Summary statistics matching Table 6 of the paper."""

    num_nodes: int
    num_edges: int
    max_degree: int
    average_degree: float
    num_triangles: int
    average_clustering: float
    global_clustering: float

    def as_dict(self) -> Dict[str, float]:
        """Return the summary as a plain dictionary (for tabulation)."""
        return {
            "n": self.num_nodes,
            "m": self.num_edges,
            "d_max": self.max_degree,
            "d_avg": self.average_degree,
            "n_triangles": self.num_triangles,
            "avg_clustering": self.average_clustering,
            "global_clustering": self.global_clustering,
        }


def summary(graph: AttributedGraph) -> GraphSummary:
    """Compute the Table-6 style summary of ``graph``."""
    degrees = graph.degrees()
    max_degree = int(degrees.max()) if degrees.size else 0
    average_degree = float(degrees.mean()) if degrees.size else 0.0
    num_triangles, per_node = _triangle_census(graph)
    coefficients = _clustering_from_triangles(graph, per_node)
    average_clustering = float(coefficients.mean()) if degrees.size else 0.0
    wedges = wedge_count(graph)
    global_clustering = 3.0 * num_triangles / wedges if wedges else 0.0
    return GraphSummary(
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        max_degree=max_degree,
        average_degree=average_degree,
        num_triangles=num_triangles,
        average_clustering=average_clustering,
        global_clustering=global_clustering,
    )


def degree_ccdf(graph: AttributedGraph) -> List[tuple]:
    """Complementary cumulative degree distribution, as ``(degree, fraction)``.

    ``fraction`` is the share of nodes whose degree strictly exceeds
    ``degree`` — the quantity plotted on the y-axis of Figure 2.  A single
    ``searchsorted`` of the unique degrees into the sorted sequence replaces
    the former O(unique · n) scan.
    """
    degrees = np.sort(graph.degrees())
    n = degrees.size
    if n == 0:
        return []
    unique = np.unique(degrees)
    exceeding = n - np.searchsorted(degrees, unique, side="right")
    return [
        (int(value), float(count) / n) for value, count in zip(unique, exceeding)
    ]


def clustering_ccdf(graph: AttributedGraph, num_points: int = 101) -> List[tuple]:
    """Complementary cumulative distribution of local clustering coefficients.

    Evaluated on an even grid of ``num_points`` thresholds in ``[0, 1]`` —
    the quantity plotted in Figure 3.
    """
    coefficients = np.sort(local_clustering_coefficients(graph))
    n = coefficients.size
    if n == 0:
        return []
    thresholds = np.linspace(0.0, 1.0, num_points)
    exceeding = n - np.searchsorted(coefficients, thresholds, side="right")
    return [
        (float(t), float(count) / n) for t, count in zip(thresholds, exceeding)
    ]
