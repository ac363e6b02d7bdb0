"""The attributed simple graph used throughout the library.

The paper (Section 2.1) models a social network as an undirected, unweighted
simple graph ``G = (N, E, X)`` where every node carries a ``w``-dimensional
binary attribute vector.  :class:`AttributedGraph` implements exactly that
abstraction.

Nodes are always the integers ``0 .. n-1``.  Datasets with arbitrary node
labels are relabelled on load (see :mod:`repro.graphs.io`).

Canonical edge store
--------------------
The graph owns an immutable **base CSR** — ``(indptr, indices)`` with sorted
neighbour rows — plus a bounded **delta overlay** of pending mutations:
the sets of directed edge keys (``u * n + v``) inserted since the base was
built and of base keys deleted since.  Every query answers from
``base ⊕ overlay``:

* :meth:`has_edge` probes the overlay sets in O(1) and falls back to a
  binary search of the base row;
* :meth:`degrees` / :meth:`degree` read an incrementally maintained degree
  array in O(1) per node;
* :meth:`neighbors_array` merges a base row with its (tiny) overlay slice;
* :meth:`csr` **compacts** the overlay into a new base with a handful of
  vectorized array passes — O(n + m + δ) with *no sorting*, because the base
  keys are already sorted and the overlay is merged at ``searchsorted``
  positions.  While the overlay is empty, every call returns the same
  read-only array objects.

The overlay is bounded: once it exceeds a fraction of the base it is folded
in eagerly, so mutation-heavy loops pay amortized O(1) per edge and a
long-lived graph can never accumulate an unbounded delta.

The legacy per-node adjacency *sets* are demoted to a lazily materialized
compatibility view (:meth:`neighbor_set`): nothing builds them until a
caller asks for set semantics, and once built they are kept in sync by the
mutation methods (and double as an O(1) accelerator for scalar membership
probes).  Pipelines that stick to the CSR/overlay API never pay the
per-edge Python ``set`` construction cost.

Statistics memo
---------------
A graph that is scored many times without changing (an evaluation
baseline, a released sample) can opt in to a statistics memo with
:meth:`AttributedGraph.enable_statistics_memo`.  While it is on, the
public kernels of :mod:`repro.graphs.statistics` and the evaluation
helpers keep what they compute there — the triangle census, the
common-neighbour maximum, the Θ_F probabilities — and read it back
instead of rescanning.  Every edge or attribute write clears it, copies
and derived graphs start without it, and pickling keeps it.  A graph that
never turned it on computes every statistic afresh and stores nothing.
"""

from __future__ import annotations

from typing import (
    Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence,
    Set, Tuple,
)

import numpy as np

from repro.graphs import dtypes
from repro.utils.arrays import (
    directed_keys_to_csr,
    fold_sorted_keys,
    sorted_intersect,
)

Edge = Tuple[int, int]

#: Directed-entry floor below which the overlay is never folded eagerly.
_OVERLAY_COMPACT_MIN = 8192


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class AttributedGraph:
    """An undirected simple graph with binary node attributes.

    Parameters
    ----------
    num_nodes:
        Number of nodes ``n``; nodes are the integers ``0 .. n-1``.
    num_attributes:
        Number of binary attributes ``w`` attached to every node.  May be
        zero for purely structural graphs.

    Notes
    -----
    Self-loops and parallel edges are rejected, matching the paper's
    "attributed simple graph" setting.  The attribute matrix is stored as an
    ``(n, w)`` array of ``uint8`` values in ``{0, 1}``.
    """

    def __init__(self, num_nodes: int, num_attributes: int = 0) -> None:
        if num_nodes < 0:
            raise ValueError(f"num_nodes must be non-negative, got {num_nodes}")
        if num_attributes < 0:
            raise ValueError(
                f"num_attributes must be non-negative, got {num_attributes}"
            )
        self._n = int(num_nodes)
        self._w = int(num_attributes)
        self._m = 0
        self._attributes = np.zeros((self._n, self._w), dtype=np.uint8)
        # Structural mutation generation counter (bumped by every successful
        # edge insertion/removal; attribute writes do not affect it).
        self._generation = 0
        # Canonical storage: immutable base CSR + delta overlay, held at the
        # narrowest safe width (degrees and indices are < n, so both use the
        # storage-ladder index dtype; indptr is re-sized at every install).
        self._index_dtype = dtypes.storage_index_dtype(self._n)
        self._base_indptr = _read_only(np.zeros(self._n + 1, dtype=np.uint8))
        self._base_indices = _read_only(np.empty(0, dtype=self._index_dtype))
        self._added: Set[int] = set()
        self._removed: Set[int] = set()
        #: Cached sorted-array form of the overlay, tagged by generation.
        self._overlay_cache: Optional[Tuple[int, np.ndarray, np.ndarray]] = None
        self._degree_array = np.zeros(self._n, dtype=self._index_dtype)
        # Optional mmap sidecar owning the immutable base arrays.
        self._mmap_store = None
        # Lazily materialized adjacency-set compatibility view.
        self._adj_sets: Optional[Dict[int, Set[int]]] = None
        # Opt-in statistics memo (None while off; see the module docstring).
        self._memo: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m``."""
        return self._m

    @property
    def num_attributes(self) -> int:
        """Number of binary attributes per node ``w``."""
        return self._w

    @property
    def attributes(self) -> np.ndarray:
        """The ``(n, w)`` binary attribute matrix (a live view, not a copy)."""
        return self._attributes

    @property
    def statistics_memo(self) -> Optional[Dict[str, object]]:
        """The statistics memo dict (do not mutate), or ``None`` while off."""
        return self._memo

    def enable_statistics_memo(self) -> None:
        """Turn the statistics memo on (idempotent; see the module doc)."""
        if self._memo is None:
            self._memo = {}

    def memoized(self, key: str, compute: Callable[[], object]) -> object:
        """``compute()``, kept under ``key`` while the statistics memo is on.

        With the memo off this is just ``compute()``: nothing is stored.
        """
        memo = self._memo
        if memo is None:
            return compute()
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    def nodes(self) -> range:
        """Iterate over node identifiers ``0 .. n-1``."""
        return range(self._n)

    def __len__(self) -> int:
        return self._n

    def __contains__(self, node: int) -> bool:
        return 0 <= node < self._n

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"AttributedGraph(n={self._n}, m={self._m}, w={self._w})"
        )

    # ------------------------------------------------------------------
    # Node attribute access
    # ------------------------------------------------------------------
    def get_attributes(self, node: int) -> np.ndarray:
        """Return a copy of the attribute vector of ``node``."""
        self._check_node(node)
        return self._attributes[node].copy()

    def set_attributes(self, node: int, vector: Sequence[int]) -> None:
        """Set the attribute vector of ``node``.

        The vector must have length ``w`` and contain only 0/1 values.
        """
        self._check_node(node)
        arr = np.asarray(vector, dtype=np.int64)
        if arr.shape != (self._w,):
            raise ValueError(
                f"attribute vector must have length {self._w}, got shape {arr.shape}"
            )
        if np.any((arr != 0) & (arr != 1)):
            raise ValueError("attribute values must be binary (0 or 1)")
        self._attributes[node] = arr.astype(np.uint8)
        self._clear_memo()

    def set_all_attributes(self, matrix: np.ndarray) -> None:
        """Replace the whole attribute matrix at once (shape ``(n, w)``)."""
        arr = np.asarray(matrix, dtype=np.int64)
        if arr.shape != (self._n, self._w):
            raise ValueError(
                f"attribute matrix must have shape {(self._n, self._w)}, got {arr.shape}"
            )
        if np.any((arr != 0) & (arr != 1)):
            raise ValueError("attribute values must be binary (0 or 1)")
        self._attributes = arr.astype(np.uint8)
        self._clear_memo()

    # ------------------------------------------------------------------
    # Edge manipulation (overlay writes)
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int) -> bool:
        """Add the undirected edge ``{u, v}``.

        Returns ``True`` if the edge was added and ``False`` if it already
        existed.  Self-loops raise ``ValueError``.
        """
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise ValueError(f"self-loops are not allowed (node {u})")
        key = u * self._n + v
        if self._edge_present(key, u, v):
            return False
        rkey = v * self._n + u
        if key in self._removed:
            # Re-inserting a base edge cancels its pending deletion.
            self._removed.discard(key)
            self._removed.discard(rkey)
        else:
            self._added.add(key)
            self._added.add(rkey)
        self._m += 1
        self._degree_array[u] += 1
        self._degree_array[v] += 1
        self._generation += 1
        if self._adj_sets is not None:
            self._adj_sets[u].add(v)
            self._adj_sets[v].add(u)
        self._maybe_compact()
        self._clear_memo()
        return True

    def remove_edge(self, u: int, v: int) -> bool:
        """Remove the undirected edge ``{u, v}``.

        Returns ``True`` if an edge was removed and ``False`` if it did not
        exist.
        """
        self._check_node(u)
        self._check_node(v)
        key = u * self._n + v
        if not self._edge_present(key, u, v):
            return False
        rkey = v * self._n + u
        if key in self._added:
            # Deleting a pending insertion cancels it outright.
            self._added.discard(key)
            self._added.discard(rkey)
        else:
            self._removed.add(key)
            self._removed.add(rkey)
        self._m -= 1
        self._degree_array[u] -= 1
        self._degree_array[v] -= 1
        self._generation += 1
        if self._adj_sets is not None:
            self._adj_sets[u].discard(v)
            self._adj_sets[v].discard(u)
        self._maybe_compact()
        self._clear_memo()
        return True

    def has_edge(self, u: int, v: int) -> bool:
        """Return whether the undirected edge ``{u, v}`` exists."""
        if not (0 <= u < self._n and 0 <= v < self._n) or u == v:
            return False
        if self._adj_sets is not None:
            return v in self._adj_sets[u]
        return self._edge_present(u * self._n + v, u, v)

    def add_edges_from(self, edges: Iterable[Edge]) -> int:
        """Add many edges; returns the number of edges actually inserted."""
        added = 0
        for u, v in edges:
            if self.add_edge(u, v):
                added += 1
        return added

    def add_edges_arrays(self, us: np.ndarray, vs: np.ndarray) -> None:
        """Bulk-insert pre-validated edges given as two parallel index arrays.

        Bulk-insert utility for callers that have already validated their
        edges: every pair must be a non-loop edge **not already present** in
        the graph, and the pairs must be mutually distinct as undirected
        edges.  No per-edge validation is performed beyond a range check on
        the arrays — violating the contract silently corrupts ``num_edges``.
        """
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        if us.shape != vs.shape or us.ndim != 1:
            raise ValueError("us and vs must be one-dimensional arrays of equal length")
        if us.size == 0:
            return
        if int(min(us.min(), vs.min())) < 0 or int(max(us.max(), vs.max())) >= self._n:
            raise KeyError("edge endpoint out of range")
        n = self._n
        sets = self._adj_sets
        for u, v in zip(us.tolist(), vs.tolist()):
            key = u * n + v
            rkey = v * n + u
            if key in self._removed:
                self._removed.discard(key)
                self._removed.discard(rkey)
            else:
                self._added.add(key)
                self._added.add(rkey)
            if sets is not None:
                sets[u].add(v)
                sets[v].add(u)
        np.add.at(self._degree_array, us, 1)
        np.add.at(self._degree_array, vs, 1)
        self._m += us.size
        self._generation += 1
        self._maybe_compact()
        self._clear_memo()

    def clear_edges(self) -> None:
        """Remove every edge, keeping nodes and attributes."""
        self._install_base(
            np.zeros(self._n + 1, dtype=np.uint8),
            np.empty(0, dtype=self._index_dtype),
        )
        self._added.clear()
        self._removed.clear()
        self._overlay_cache = None
        self._degree_array = np.zeros(self._n, dtype=self._index_dtype)
        self._adj_sets = None
        self._m = 0
        self._generation += 1
        self._clear_memo()

    # ------------------------------------------------------------------
    # Neighbourhood queries (overlay-aware reads)
    # ------------------------------------------------------------------
    def neighbors(self, node: int) -> FrozenSet[int]:
        """Return the neighbour set Γ(node) as a frozen set."""
        self._check_node(node)
        if self._adj_sets is not None:
            return frozenset(self._adj_sets[node])
        return frozenset(self.neighbors_array(node).tolist())

    def neighbor_set(self, node: int) -> Set[int]:
        """Return the *live* neighbour set of ``node`` (do not mutate).

        Materialises the adjacency-set compatibility view on first use.
        """
        self._check_node(node)
        return self._adj[node]

    def neighbors_array(self, node: int) -> np.ndarray:
        """Return the neighbours of ``node`` as a sorted integer array.

        While the overlay is empty this is a zero-copy (read-only) view of
        the base CSR row; otherwise the row's overlay slice is merged in.
        The array carries the narrow storage-ladder dtype — widen
        (:func:`repro.graphs.dtypes.widen`) before packing keys from it.
        """
        self._check_node(node)
        indptr = self._base_indptr
        row = self._base_indices[indptr[node]:indptr[node + 1]]
        if not self._added and not self._removed:
            return row
        added, removed = self._overlay_arrays()
        n = self._n
        lo, hi = node * n, (node + 1) * n
        r0, r1 = np.searchsorted(removed, (lo, hi))
        if r1 > r0:
            keep = np.ones(row.size, dtype=bool)
            keep[np.searchsorted(row, removed[r0:r1] - lo)] = False
            row = row[keep]
        a0, a1 = np.searchsorted(added, (lo, hi))
        if a1 > a0:
            fresh = added[a0:a1] - lo
            row = np.insert(row, np.searchsorted(row, fresh), fresh)
        return row

    def degree(self, node: int) -> int:
        """Return the degree of ``node`` (O(1))."""
        self._check_node(node)
        return int(self._degree_array[node])

    def degrees(self) -> np.ndarray:
        """Return the degree of every node as an ``(n,)`` ``int64`` array.

        The maintained array is stored at the narrow storage-ladder width;
        this accessor widens to ``int64`` so caller arithmetic (products,
        cumulative sums, negation) can never wrap.  Use
        :meth:`degrees_view` for a zero-copy narrow view.
        """
        return self._degree_array.astype(np.int64)

    def degrees_view(self) -> np.ndarray:
        """Read-only zero-copy view of the maintained degree array.

        For scalar-hot loops that re-consult degrees between mutations;
        the view reflects future mutations (unlike :meth:`degrees`).  The
        view keeps the narrow storage dtype — widen before arithmetic.
        """
        view = self._degree_array.view()
        view.flags.writeable = False
        return view

    def common_neighbors(self, u: int, v: int) -> Set[int]:
        """Return the set of common neighbours of ``u`` and ``v``."""
        self._check_node(u)
        self._check_node(v)
        if self._adj_sets is not None:
            return self._adj_sets[u] & self._adj_sets[v]
        return set(sorted_intersect(
            self.neighbors_array(u), self.neighbors_array(v)
        ).tolist())

    def count_common_neighbors(self, u: int, v: int) -> int:
        """Return ``|Γ(u) ∩ Γ(v)|`` without materialising the set view.

        Uses the O(1)-update adjacency sets when the compatibility view is
        live, and a vectorized merge of the two sorted neighbour rows
        otherwise.
        """
        self._check_node(u)
        self._check_node(v)
        if self._adj_sets is not None:
            a, b = self._adj_sets[u], self._adj_sets[v]
            if len(a) > len(b):
                a, b = b, a
            return len(a & b)
        return int(sorted_intersect(
            self.neighbors_array(u), self.neighbors_array(v)
        ).size)

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return all edges as parallel canonical arrays ``(us, vs)``.

        ``us[i] < vs[i]`` and the pairs are sorted lexicographically — the
        vectorized counterpart of :meth:`edges` for bulk consumers.
        """
        indptr, indices = self.csr()
        owners = np.repeat(
            # int64: callers pack owners * n + v keys from this array.
            np.arange(self._n, dtype=np.int64), np.diff(indptr)
        )
        upper = owners < indices
        return owners[upper], indices[upper]

    def edges(self) -> Iterator[Edge]:
        """Iterate over edges as canonical ``(min, max)`` tuples.

        Pairs are yielded in sorted (lexicographic) order.
        """
        us, vs = self.edge_arrays()
        return zip(us.tolist(), vs.tolist())

    def edge_list(self) -> List[Edge]:
        """Return all edges as a sorted list of canonical tuples."""
        return list(self.edges())

    # ------------------------------------------------------------------
    # CSR view (compaction)
    # ------------------------------------------------------------------
    @property
    def mutation_generation(self) -> int:
        """Structural mutation counter.

        Incremented by every successful edge insertion, removal, or bulk
        update.  Attribute mutations do not affect it — the CSR view only
        describes structure.
        """
        return self._generation

    def csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return the compressed-sparse-row view ``(indptr, indices)``.

        ``indices[indptr[v]:indptr[v + 1]]`` holds the neighbours of ``v``
        sorted in increasing order; both arrays are read-only and carry the
        narrowest storage-ladder dtype that fits their values (``indices``
        sized by ``n``, ``indptr`` by the directed entry count ``2m``).

        While the overlay is empty, every call returns the *same* base
        array objects; a structural mutation makes the next call fold the
        overlay into a new base in O(n + m + δ) — a sort-free merge, not a
        rebuild.
        """
        if self._added or self._removed:
            self._compact()
        return self._base_indptr, self._base_indices

    def _overlay_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The overlay as sorted directed-key arrays (cached per generation)."""
        cache = self._overlay_cache
        if cache is not None and cache[0] == self._generation:
            return cache[1], cache[2]
        added = np.fromiter(self._added, dtype=np.int64, count=len(self._added))
        removed = np.fromiter(
            self._removed, dtype=np.int64, count=len(self._removed)
        )
        added.sort()
        removed.sort()
        self._overlay_cache = (self._generation, added, removed)
        return added, removed

    def _maybe_compact(self) -> None:
        """Fold the overlay into the base once it outgrows its bound."""
        overlay = len(self._added) + len(self._removed)
        if overlay > max(_OVERLAY_COMPACT_MIN, self._base_indices.size // 2):
            self._compact()

    def _compact(self) -> None:
        """Merge the overlay into a fresh immutable base CSR (sort-free)."""
        n = self._n
        keys = np.repeat(
            # int64: directed-key packing u * n + v overflows narrow widths.
            np.arange(n, dtype=np.int64), np.diff(self._base_indptr)
        ) * n + self._base_indices
        added, removed = self._overlay_arrays()
        self._install_base_from_directed_keys(
            fold_sorted_keys(keys, added, removed)
        )

    def _install_base_from_directed_keys(self, directed_keys: np.ndarray) -> None:
        """Adopt sorted directed edge keys as the new immutable base CSR.

        The CSR arrays are narrowed to the storage ladder on the way in —
        checked casts, so a key outside ``[0, n^2)`` fails loudly instead
        of wrapping.
        """
        indptr, indices = directed_keys_to_csr(self._n, directed_keys)
        indices = dtypes.checked_cast(indices, self._index_dtype, "indices")
        indptr = dtypes.checked_cast(
            indptr,
            dtypes.storage_dtype_for_max(int(directed_keys.size)),
            "indptr",
        )
        self._install_base(indptr, indices)
        self._added.clear()
        self._removed.clear()
        self._overlay_cache = None

    def _install_base(self, indptr: np.ndarray,
                      indices: np.ndarray) -> None:
        """Install immutable base arrays, routing through the mmap sidecar.

        With an attached :class:`~repro.graphs.mmapcsr.CsrMmapStore` the
        arrays are persisted temp-and-swap and re-owned as read-only mmap
        views; otherwise they stay heap-resident.
        """
        if self._mmap_store is not None:
            indptr, indices = self._mmap_store.swap(indptr, indices)
        self._base_indptr = _read_only(indptr)
        self._base_indices = _read_only(indices)

    # ------------------------------------------------------------------
    # Memory-mapped base storage
    # ------------------------------------------------------------------
    @property
    def mmap_base_enabled(self) -> bool:
        """Whether the immutable base CSR lives in an mmap sidecar."""
        return self._mmap_store is not None

    def use_mmap_base(self, directory, name: str = "base_csr") -> None:
        """Park the immutable base CSR in ``.npy`` sidecar files.

        Any pending overlay is folded first; from then on every compaction
        writes the fresh base arrays to the sidecar (temp-and-swap, the
        ModelArtifact v2 protocol) and re-owns them as read-only
        ``np.memmap`` views, so the base never has to be heap-resident.
        Queries and mutations are unaffected — the overlay, degree array,
        and adjacency-set view stay resident.
        """
        from repro.graphs.mmapcsr import CsrMmapStore

        if self._added or self._removed:
            self._compact()
        self._mmap_store = CsrMmapStore(directory, name)
        self._install_base(
            np.asarray(self._base_indptr), np.asarray(self._base_indices)
        )

    # ------------------------------------------------------------------
    # Adjacency-set compatibility view
    # ------------------------------------------------------------------
    def materialize_neighbor_sets(self) -> None:
        """Force the adjacency-set compatibility view into existence.

        Mutation-heavy scalar loops (the rewiring generators, orphan repair)
        call this up front so that ``has_edge`` / ``count_common_neighbors``
        run on O(1)-update Python sets instead of re-deriving overlay-aware
        answers per probe.
        """
        self._adj

    def adjacency_sets(self) -> Dict[int, Set[int]]:
        """The live per-node neighbour sets (materialised on first use).

        The scalar-hot loops index this dict directly instead of paying the
        bounds-checked :meth:`neighbor_set` accessor per probe.  The dict and
        its sets are kept in sync by the mutation methods — treat them as
        read-only.
        """
        return self._adj

    @property
    def _adj(self) -> Dict[int, Set[int]]:
        """The adjacency sets, lazily materialised from the canonical store.

        Once built, the mutation methods keep the view in sync, so scalar
        membership probes on mutation-heavy phases stay O(1).
        """
        if self._adj_sets is None:
            indptr, indices = self.csr()
            flat = indices.tolist()
            bounds = indptr.tolist()
            self._adj_sets = {
                v: set(flat[bounds[v]:bounds[v + 1]]) for v in range(self._n)
            }
        return self._adj_sets

    # ------------------------------------------------------------------
    # Internal membership helpers
    # ------------------------------------------------------------------
    def _edge_present(self, key: int, u: int, v: int) -> bool:
        """Membership of directed key ``u * n + v`` in base ⊕ overlay."""
        if self._adj_sets is not None:
            return v in self._adj_sets[u]
        if key in self._added:
            return True
        if key in self._removed:
            return False
        indptr = self._base_indptr
        row = self._base_indices[indptr[u]:indptr[u + 1]]
        if row.size == 0:
            return False
        position = int(np.searchsorted(row, v))
        return position < row.size and int(row[position]) == v

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def _copy_structure_into(self, clone: "AttributedGraph") -> None:
        """Copy the canonical store into ``clone`` (O(n + δ), base shared)."""
        # The base arrays are immutable (compaction installs new arrays
        # instead of writing in place), so clones share them safely.
        clone._base_indptr = self._base_indptr
        clone._base_indices = self._base_indices
        clone._added = set(self._added)
        clone._removed = set(self._removed)
        clone._overlay_cache = None
        clone._degree_array = self._degree_array.copy()
        clone._adj_sets = None
        clone._m = self._m

    def copy(self) -> "AttributedGraph":
        """Return a deep copy of the graph (structure and attributes)."""
        clone = AttributedGraph(self._n, self._w)
        self._copy_structure_into(clone)
        clone._attributes = self._attributes.copy()
        return clone

    def structural_copy(self) -> "AttributedGraph":
        """Return a copy of the structure with all attributes zeroed."""
        clone = AttributedGraph(self._n, self._w)
        self._copy_structure_into(clone)
        return clone

    def induced_subgraph(self, nodes: Sequence[int]) -> "AttributedGraph":
        """Return the subgraph induced by ``nodes``.

        Nodes are relabelled ``0 .. len(nodes)-1`` in the order given;
        attribute vectors are carried over.  Vectorized: the edge set is
        filtered and re-keyed with array passes over the CSR view.
        """
        nodes = list(nodes)
        for node in nodes:
            self._check_node(node)
        size = len(nodes)
        # int64: remap table needs the signed -1 sentinel and key packing.
        index = np.full(self._n, -1, dtype=np.int64)
        # int64: feeds lo * size + hi packing below.
        index[nodes] = np.arange(size, dtype=np.int64)
        us, vs = self.edge_arrays()
        mapped_u = index[us]
        mapped_v = index[vs]
        mask = (mapped_u >= 0) & (mapped_v >= 0)
        lo = np.minimum(mapped_u[mask], mapped_v[mask])
        hi = np.maximum(mapped_u[mask], mapped_v[mask])
        keys = lo * size + hi
        keys.sort()
        sub = AttributedGraph._from_canonical_keys(size, keys, self._w)
        if self._w and size:
            sub._attributes = self._attributes[nodes].copy()
        return sub

    def relabelled(self, order: Sequence[int]) -> "AttributedGraph":
        """Return a copy with nodes permuted so that ``order[i]`` becomes ``i``."""
        if sorted(order) != list(range(self._n)):
            raise ValueError("order must be a permutation of all node ids")
        return self.induced_subgraph(order)

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Convert to a :class:`networkx.Graph` with ``attr_<j>`` node data."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(self._n))
        for node in range(self._n):
            for j in range(self._w):
                graph.nodes[node][f"attr_{j}"] = int(self._attributes[node, j])
        graph.add_edges_from(self.edges())
        return graph

    @classmethod
    def from_networkx(cls, graph, attribute_keys: Optional[Sequence[str]] = None
                      ) -> "AttributedGraph":
        """Build an :class:`AttributedGraph` from a :class:`networkx.Graph`.

        Nodes are relabelled to ``0 .. n-1`` in sorted order.  When
        ``attribute_keys`` is given, each key is read from the node-data
        dictionaries and must hold 0/1 values.
        """
        nodes = sorted(graph.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        keys = list(attribute_keys) if attribute_keys else []
        result = cls(len(nodes), len(keys))
        for node in nodes:
            data = graph.nodes[node]
            if keys:
                vector = [int(data.get(key, 0)) for key in keys]
                result.set_attributes(index[node], vector)
        for u, v in graph.edges():
            if u == v:
                continue
            result.add_edge(index[u], index[v])
        return result

    @classmethod
    def from_edge_arrays(cls, num_nodes: int, us: np.ndarray, vs: np.ndarray,
                         num_attributes: int = 0) -> "AttributedGraph":
        """Build a graph from parallel endpoint arrays, CSR-first.

        The validated general-purpose counterpart of the batched
        generators' internal :meth:`_from_canonical_keys` path: the base
        CSR is built immediately with vectorized array operations and no
        per-edge Python work.  A pipeline that only computes CSR-based
        statistics on the result never pays for adjacency sets.

        The pairs must be loop-free and mutually distinct as undirected
        edges; duplicates or self-loops raise ``ValueError``.
        """
        graph = cls(num_nodes, num_attributes)
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        if us.shape != vs.shape or us.ndim != 1:
            raise ValueError("us and vs must be one-dimensional arrays of equal length")
        if us.size == 0:
            return graph
        n = graph._n
        if int(min(us.min(), vs.min())) < 0 or int(max(us.max(), vs.max())) >= n:
            raise KeyError("edge endpoint out of range")
        if np.any(us == vs):
            raise ValueError("self-loops are not allowed")
        keys = np.concatenate((us * n + vs, vs * n + us))
        keys.sort()
        if np.any(keys[1:] == keys[:-1]):
            raise ValueError("duplicate edges are not allowed")
        graph._adopt_directed_keys(keys, us.size)
        return graph

    @classmethod
    def _from_canonical_keys(cls, num_nodes: int, keys: np.ndarray,
                             num_attributes: int = 0) -> "AttributedGraph":
        """Trusted fast path: build from *unique canonical* edge keys.

        ``keys`` must hold ``u * num_nodes + v`` with ``u < v``, already
        deduplicated — the batched generators' native output.  No
        validation is performed.
        """
        graph = cls(num_nodes, num_attributes)
        if keys.size == 0:
            return graph
        n = num_nodes
        lo = keys // n
        hi = keys % n
        directed = np.concatenate((keys, hi * n + lo))
        directed.sort()
        graph._adopt_directed_keys(directed, keys.size)
        return graph

    @classmethod
    def from_graph_structure(cls, graph: "AttributedGraph",
                             num_attributes: int = 0) -> "AttributedGraph":
        """Copy the structure of ``graph`` into a fresh attribute dimension.

        The vectorized replacement for ``AttributedGraph(n, w)`` followed by
        ``add_edges_from(graph.edges())``: the source's CSR view is adopted
        wholesale, so no per-edge work is performed.  Attributes start
        zeroed.
        """
        clone = cls(graph.num_nodes, num_attributes)
        indptr, indices = graph.csr()
        clone._base_indptr = indptr
        clone._base_indices = indices
        clone._degree_array = np.diff(dtypes.widen(indptr)).astype(
            clone._index_dtype, copy=False
        )
        clone._m = graph.num_edges
        return clone

    def _adopt_directed_keys(self, directed_keys: np.ndarray,
                             num_edges: int) -> None:
        """Install sorted directed edge keys as the canonical base store.

        Resets every derived structure (degrees, compat sets, overlay) and
        bumps the mutation generation, so callers replacing the edge set
        wholesale (the batched rewiring engine's adoption pass, the bulk
        constructors) need no further invariant bookkeeping.
        """
        self._install_base_from_directed_keys(directed_keys)
        self._degree_array = np.diff(dtypes.widen(self._base_indptr)).astype(
            self._index_dtype, copy=False
        )
        self._adj_sets = None
        self._m = int(num_edges)
        self._generation += 1
        self._clear_memo()

    @classmethod
    def from_edges(cls, num_nodes: int, edges: Iterable[Edge],
                   attributes: Optional[np.ndarray] = None) -> "AttributedGraph":
        """Build a graph from an edge iterable and an optional attribute matrix."""
        if attributes is not None:
            attributes = np.asarray(attributes)
            num_attributes = attributes.shape[1] if attributes.ndim == 2 else 0
        else:
            num_attributes = 0
        graph = cls(num_nodes, num_attributes)
        graph.add_edges_from(edges)
        if attributes is not None and num_attributes:
            graph.set_all_attributes(attributes)
        return graph

    # ------------------------------------------------------------------
    # Equality (used heavily in tests)
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AttributedGraph):
            return NotImplemented
        if (
            self._n != other._n
            or self._w != other._w
            or self._m != other._m
        ):
            return False
        self_indptr, self_indices = self.csr()
        other_indptr, other_indices = other.csr()
        return (
            np.array_equal(self_indptr, other_indptr)
            and np.array_equal(self_indices, other_indices)
            and np.array_equal(self._attributes, other._attributes)
        )

    def __hash__(self) -> int:  # pragma: no cover - graphs are mutable
        raise TypeError("AttributedGraph is mutable and unhashable")

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _clear_memo(self) -> None:
        """Drop every memoized statistic (the memo stays on if it was on)."""
        if self._memo:
            self._memo.clear()

    def _check_node(self, node: int) -> None:
        if not (0 <= node < self._n):
            raise KeyError(f"node {node} is out of range [0, {self._n})")
