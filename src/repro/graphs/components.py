"""Connected-component utilities.

The paper keeps only the main connected component of each dataset
(Appendix A) and the TriCycLe post-processing step (Algorithm 2) repairs
"orphaned" nodes — nodes outside the main connected component of a generated
graph.  These helpers provide the component decomposition both steps need.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

import numpy as np

from repro.graphs.attributed import AttributedGraph
from repro.utils.arrays import sorted_membership


def _gather_frontier(indptr: np.ndarray, indices: np.ndarray,
                     frontier: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Gather the CSR neighbours of every frontier node in array passes.

    Returns ``(neighbours, owners)`` where ``owners[i]`` is the frontier
    node whose row produced ``neighbours[i]``.  Both outputs are widened to
    ``int64`` regardless of the CSR storage width: the caller feeds
    ``neighbours`` back in as the next frontier, and narrow unsigned ids
    must never reach the ``frontier + 1`` / ``owners * n`` arithmetic.
    """
    starts = np.asarray(indptr[frontier], dtype=np.int64)
    counts = np.asarray(indptr[frontier + 1], dtype=np.int64) - starts
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    previous = np.concatenate(([0], np.cumsum(counts)[:-1]))
    positions = np.arange(total, dtype=np.int64) \
        - np.repeat(previous, counts) + np.repeat(starts, counts)
    neighbours = np.asarray(indices[positions], dtype=np.int64)
    return neighbours, np.repeat(frontier, counts)


def _sorted_dedupe(values: np.ndarray) -> np.ndarray:
    """Sort ``values`` in place and drop duplicates (faster than np.unique)."""
    values.sort()
    if values.size > 1:
        values = values[
            np.concatenate(([True], values[1:] != values[:-1]))
        ]
    return values


def component_labels(graph: AttributedGraph) -> Tuple[np.ndarray, int]:
    """Label every node with its connected component; return ``(labels, count)``.

    Labels are assigned in increasing order of each component's smallest
    node id (the BFS seeds nodes in id order), so ``labels`` is
    deterministic.  This is the array-native decomposition the repair
    engine consumes; :func:`connected_components` wraps it into the
    list-of-sets view.
    """
    return _labels_from_csr(graph.num_nodes, *graph.csr())


def _labels_from_csr(n: int, indptr: np.ndarray, indices: np.ndarray
                     ) -> Tuple[np.ndarray, int]:
    """:func:`component_labels` over raw CSR arrays (snapshot consumers).

    The decomposition is a frontier BFS over the CSR view: each expansion
    gathers the neighbours of the whole frontier in a handful of array
    passes, so no per-edge Python work (or adjacency-set materialisation)
    happens even on Pokec-scale graphs.  Isolated nodes — the dominant
    component count in orphan-repair inputs — never enter the BFS loop:
    they are labelled in one vectorized renumbering pass that reproduces
    the canonical increasing-min-node label order exactly.
    """
    labels = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return labels, 0
    isolated = np.flatnonzero(indptr[1:] == indptr[:-1])
    temp_starts: List[int] = []
    for start in np.flatnonzero(indptr[1:] > indptr[:-1]).tolist():
        if labels[start] >= 0:
            continue
        temp_label = len(temp_starts)
        temp_starts.append(start)
        labels[start] = temp_label
        frontier = np.array([start], dtype=np.int64)
        while frontier.size:
            neighbours, _owners = _gather_frontier(indptr, indices, frontier)
            if neighbours.size == 0:
                break
            fresh = neighbours[labels[neighbours] < 0]
            if fresh.size == 0:
                break
            fresh = _sorted_dedupe(fresh)
            labels[fresh] = temp_label
            frontier = fresh
    label_count = len(temp_starts) + int(isolated.size)
    if isolated.size == 0:
        return labels, label_count
    # Interleave: a component's final label is its rank among all
    # components ordered by smallest member.  BFS components already carry
    # increasing temp labels (seeds scanned in id order), so each shifts by
    # the number of isolated nodes preceding its seed, and each isolated
    # node shifts by the number of BFS seeds preceding it.
    starts = np.asarray(temp_starts, dtype=np.int64)
    positive = labels >= 0
    shift = np.searchsorted(isolated, starts)
    labels[positive] = (np.arange(starts.size, dtype=np.int64) + shift)[
        labels[positive]
    ]
    labels[isolated] = np.searchsorted(starts, isolated) \
        + np.arange(isolated.size, dtype=np.int64)
    return labels, label_count


def connected_components(graph: AttributedGraph) -> List[Set[int]]:
    """Return the connected components of ``graph`` as a list of node sets.

    Components are returned in decreasing order of size (largest first), with
    ties broken by the smallest contained node id so the output is
    deterministic.  Array consumers should prefer :func:`component_labels`,
    which skips the Python-set materialisation.
    """
    if graph.num_nodes == 0:
        return []
    labels, _count = component_labels(graph)
    members = np.argsort(labels, kind="stable")
    boundaries = np.flatnonzero(
        np.concatenate(([True], labels[members][1:] != labels[members][:-1]))
    )
    components = [
        set(chunk.tolist())
        for chunk in np.split(members, boundaries[1:])
    ]
    components.sort(key=lambda comp: (-len(comp), min(comp)))
    return components


class BudgetedReachability:
    """Budgeted frontier BFS over a CSR snapshot plus a directed-key overlay.

    The orphan-repair engine asks "is ``target`` still reachable from
    ``source``?" after every speculative edge removal.  The original answer
    walked Python adjacency sets (~1.9M ``set.add`` calls per repair at the
    20k tier); this probe runs the same budgeted search with the array
    machinery of :func:`component_labels` — numpy frontier gathers plus a
    reusable stamp array instead of a per-call ``seen`` set — against an
    immutable CSR snapshot corrected by the caller's mutation overlay
    (sorted directed keys ``u * n + v`` added to / removed from the
    snapshot).

    Traverses at most ``edge_budget`` edges; an exhausted budget returns
    ``False`` ("possibly disconnected") rather than paying a full O(n + m)
    scan, exactly like the set-based predecessor.
    """

    def __init__(self, num_nodes: int) -> None:
        self._n = int(num_nodes)
        # Epoch stamps make the visited test O(1) without an O(n) clear per
        # query: a node is seen iff its stamp equals the current epoch.
        self._stamp = np.zeros(self._n, dtype=np.int64)
        self._epoch = 0

    def reachable(self, indptr: np.ndarray, indices: np.ndarray,
                  source: int, target: int, edge_budget: int = 4096,
                  added_keys: Optional[np.ndarray] = None,
                  removed_keys: Optional[np.ndarray] = None) -> bool:
        """Budgeted reachability of ``target`` from ``source``.

        ``added_keys`` / ``removed_keys`` are *sorted* directed edge keys
        (both orientations present) describing the live graph relative to
        the ``(indptr, indices)`` snapshot.
        """
        n = self._n
        self._epoch += 1
        epoch = self._epoch
        stamp = self._stamp
        stamp[source] = epoch
        frontier = np.array([source], dtype=np.int64)
        visited_edges = 0
        while frontier.size and visited_edges < edge_budget:
            # Respect the budget *within* a level: expand only the frontier
            # prefix whose rows fit the remaining budget (plus the row that
            # crosses it — the set-based predecessor overshoots by exactly
            # one row too).  Without this, one dense level of a social graph
            # can gather tens of thousands of edges past the budget.
            truncated = False
            row_counts = indptr[frontier + 1] - indptr[frontier]
            if visited_edges + int(row_counts.sum()) > edge_budget:
                cumulative = np.cumsum(row_counts)
                allowed = int(np.searchsorted(
                    cumulative, edge_budget - visited_edges, side="left"
                )) + 1
                if allowed < frontier.size:
                    frontier = frontier[:allowed]
                    truncated = True
            neighbours, owners = _gather_frontier(indptr, indices, frontier)
            if removed_keys is not None and removed_keys.size \
                    and neighbours.size:
                keep = ~sorted_membership(
                    removed_keys, owners * n + neighbours
                )
                neighbours = neighbours[keep]
            if added_keys is not None and added_keys.size:
                lo = np.searchsorted(added_keys, frontier * n)
                hi = np.searchsorted(added_keys, frontier * n + n)
                extra_counts = hi - lo
                total = int(extra_counts.sum())
                if total:
                    previous = np.concatenate(
                        ([0], np.cumsum(extra_counts)[:-1])
                    )
                    positions = np.arange(total, dtype=np.int64) \
                        - np.repeat(previous, extra_counts) \
                        + np.repeat(lo, extra_counts)
                    extra = added_keys[positions] - np.repeat(
                        frontier, extra_counts
                    ) * n
                    neighbours = np.concatenate((neighbours, extra))
            if neighbours.size == 0:
                break
            visited_edges += int(neighbours.size)
            if np.any(neighbours == target):
                return True
            if truncated:
                break
            fresh = neighbours[stamp[neighbours] != epoch]
            if fresh.size == 0:
                break
            fresh = _sorted_dedupe(fresh)
            stamp[fresh] = epoch
            frontier = fresh
        return False


def largest_connected_component(graph: AttributedGraph) -> AttributedGraph:
    """Return the subgraph induced by the largest connected component.

    Nodes are relabelled ``0 .. size-1`` in increasing order of their original
    ids; attributes are carried over.  An empty graph is returned unchanged.
    """
    if graph.num_nodes == 0:
        return graph.copy()
    labels, _count = component_labels(graph)
    # Labels are numbered by smallest member, so the first argmax is the
    # largest component and, among equal sizes, the one with the smallest id.
    main = int(np.argmax(np.bincount(labels)))
    return graph.induced_subgraph(np.flatnonzero(labels == main).tolist())


def is_connected(graph: AttributedGraph) -> bool:
    """Return whether the graph consists of a single connected component."""
    if graph.num_nodes <= 1:
        return True
    return component_labels(graph)[1] == 1
