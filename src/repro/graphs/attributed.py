"""The attributed simple graph used throughout the library.

The paper (Section 2.1) models a social network as an undirected, unweighted
simple graph ``G = (N, E, X)`` where every node carries a ``w``-dimensional
binary attribute vector.  :class:`AttributedGraph` implements exactly that
abstraction.

Nodes are always the integers ``0 .. n-1``.  Datasets with arbitrary node
labels are relabelled on load (see :mod:`repro.graphs.io`).

Edge store
----------
The graph keeps its edges in one **read form** and, once something writes
edge by edge, one **write form**:

* the read form is an immutable **CSR** ``(indptr, indices)`` with sorted
  neighbour rows, held at the storage-ladder widths of
  :mod:`repro.graphs.dtypes` through checked casts.  Every bulk reader uses
  it — :meth:`~AttributedGraph.csr`, :meth:`~AttributedGraph.neighbors_array`,
  :meth:`~AttributedGraph.edge_arrays`, the statistics kernels, the codec
  and :meth:`~AttributedGraph.copy` — and the bulk constructors and the
  generators' wholesale adoption install it in one pass;
* the write form is a dict of per-node neighbour **sets**.  The first
  :meth:`~AttributedGraph.add_edge` / :meth:`~AttributedGraph.remove_edge`
  (or :meth:`~AttributedGraph.materialize_neighbor_sets`) builds it from
  the CSR, and it is kept from then on.  A write updates the sets, the
  degree array and ``m``, clears the statistics memo and marks the CSR
  stale; the next :meth:`~AttributedGraph.csr` rebuilds the CSR from the
  sets with one key sort.

No sets means the CSR is current.  While the sets exist, the scalar reads
(``has_edge``, ``neighbors``, ``neighbor_set`` and the common-neighbour
queries) answer from them.  A copy shares the current CSR and starts
without sets or memo; a wholesale adoption drops the sets.  The release
path builds every graph in bulk, so it never builds the sets.

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

from itertools import chain
from typing import (
    Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence,
    Set, Tuple,
)

import numpy as np

from repro.graphs import dtypes
from repro.utils.arrays import directed_keys_to_csr, sorted_intersect

Edge = Tuple[int, int]


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
        # Read form: the immutable CSR at the narrowest safe width (degrees
        # and indices are < n, so both use the storage-ladder index dtype;
        # indptr is re-sized at every install).
        self._index_dtype = dtypes.storage_index_dtype(self._n)
        self._indptr = _read_only(np.zeros(self._n + 1, dtype=np.uint8))
        self._indices = _read_only(np.empty(0, dtype=self._index_dtype))
        self._degree_array = np.zeros(self._n, dtype=self._index_dtype)
        # Write form: per-node neighbour sets, built by the first edge
        # write; the CSR is stale while they hold writes it has not seen.
        self._adj_sets: Optional[Dict[int, Set[int]]] = None
        self._csr_stale = False
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
    # Edge writes (the write form)
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
        u, v = int(u), int(v)  # narrow NumPy scalars stay out of the sets
        adj = self._adj
        if v in adj[u]:
            return False
        adj[u].add(v)
        adj[v].add(u)
        self._m += 1
        self._degree_array[u] += 1
        self._degree_array[v] += 1
        self._csr_stale = True
        self._clear_memo()
        return True

    def remove_edge(self, u: int, v: int) -> bool:
        """Remove the undirected edge ``{u, v}``.

        Returns ``True`` if an edge was removed and ``False`` if it did not
        exist.
        """
        self._check_node(u)
        self._check_node(v)
        adj = self._adj
        if v not in adj[u]:
            return False
        adj[u].remove(v)
        adj[v].remove(u)
        self._m -= 1
        self._degree_array[u] -= 1
        self._degree_array[v] -= 1
        self._csr_stale = True
        self._clear_memo()
        return True

    def has_edge(self, u: int, v: int) -> bool:
        """Return whether the undirected edge ``{u, v}`` exists."""
        if not (0 <= u < self._n and 0 <= v < self._n) or u == v:
            return False
        if self._adj_sets is not None:
            return v in self._adj_sets[u]
        # No sets: the CSR is current, so binary-search u's row.
        row = self._indices[self._indptr[u]:self._indptr[u + 1]]
        position = int(np.searchsorted(row, v))
        return position < row.size and int(row[position]) == v

    def add_edges_from(self, edges: Iterable[Edge]) -> int:
        """Add many edges; returns the number of edges actually inserted."""
        added = 0
        for u, v in edges:
            if self.add_edge(u, v):
                added += 1
        return added

    # ------------------------------------------------------------------
    # Neighbourhood queries
    # ------------------------------------------------------------------
    def neighbors(self, node: int) -> FrozenSet[int]:
        """Return the neighbour set Γ(node) as a frozen set."""
        self._check_node(node)
        if self._adj_sets is not None:
            return frozenset(self._adj_sets[node])
        return frozenset(self.neighbors_array(node).tolist())

    def neighbor_set(self, node: int) -> Set[int]:
        """Return the *live* neighbour set of ``node`` (do not mutate).

        Builds the write form's sets on first use.
        """
        self._check_node(node)
        return self._adj[node]

    def neighbors_array(self, node: int) -> np.ndarray:
        """Return the neighbours of ``node`` as a sorted integer array.

        A zero-copy (read-only) view of the node's CSR row, rebuilt first
        if edge writes made the CSR stale.  The array carries the narrow
        storage-ladder dtype — widen (:func:`repro.graphs.dtypes.widen`)
        before packing keys from it.
        """
        self._check_node(node)
        indptr, indices = self.csr()
        return indices[indptr[node]:indptr[node + 1]]

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
        """Return the set of common neighbours of ``u`` and ``v``.

        Intersects the sets when they exist, and merges the two sorted CSR
        rows otherwise (without building the sets).
        """
        self._check_node(u)
        self._check_node(v)
        if self._adj_sets is not None:
            return self._adj_sets[u] & self._adj_sets[v]
        return set(sorted_intersect(
            self.neighbors_array(u), self.neighbors_array(v)
        ).tolist())

    def count_common_neighbors(self, u: int, v: int) -> int:
        """Return ``|Γ(u) ∩ Γ(v)|`` (never builds the write form)."""
        return len(self.common_neighbors(u, v))

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
    # Read form
    # ------------------------------------------------------------------
    def csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return the compressed-sparse-row view ``(indptr, indices)``.

        ``indices[indptr[v]:indptr[v + 1]]`` holds the neighbours of ``v``
        sorted in increasing order; both arrays are read-only and carry the
        narrowest storage-ladder dtype that fits their values (``indices``
        sized by ``n``, ``indptr`` by the directed entry count ``2m``).

        Until the next edge write every call returns the *same* array
        objects; after one, the next call rebuilds them from the write
        form's sets with one key sort.
        """
        if self._csr_stale:
            n = self._n
            owners = np.repeat(
                # int64: directed-key packing owner * n + v overflows narrow widths.
                np.arange(n, dtype=np.int64), self._degree_array
            )
            # The dict holds rows 0 .. n-1 in order (built once, never re-keyed).
            neighbours = np.fromiter(
                chain.from_iterable(self._adj_sets.values()),
                dtype=np.int64, count=owners.size,
            )
            keys = owners * n + neighbours
            keys.sort()
            self._install_csr(keys)
            self._csr_stale = False
        return self._indptr, self._indices

    def _install_csr(self, directed_keys: np.ndarray) -> None:
        """Install sorted directed edge keys as the immutable CSR.

        The arrays are narrowed to the storage ladder on the way in —
        checked casts, so a key outside ``[0, n^2)`` fails loudly instead
        of wrapping.
        """
        indptr, indices = directed_keys_to_csr(self._n, directed_keys)
        self._indices = _read_only(
            dtypes.checked_cast(indices, self._index_dtype, "indices")
        )
        self._indptr = _read_only(dtypes.checked_cast(
            indptr,
            dtypes.storage_dtype_for_max(int(directed_keys.size)),
            "indptr",
        ))

    # ------------------------------------------------------------------
    # Write form
    # ------------------------------------------------------------------
    def materialize_neighbor_sets(self) -> None:
        """Build the write form's per-node sets now (idempotent).

        Edge-by-edge writers (TCL, the scalar oracles) call this up front,
        so that their membership probes and common-neighbour counts run on
        O(1)-update Python sets from the first proposal.
        """
        self._adj

    def adjacency_sets(self) -> Dict[int, Set[int]]:
        """The live per-node neighbour sets (built on first use).

        The scalar-hot loops index this dict directly instead of paying the
        bounds-checked :meth:`neighbor_set` accessor per probe.  The edge
        writes keep the dict and its sets in sync, across CSR rebuilds
        too, until a wholesale adoption drops them — treat them as
        read-only.
        """
        return self._adj

    @property
    def _adj(self) -> Dict[int, Set[int]]:
        """The write form's sets, built from the (current) CSR on first use."""
        if self._adj_sets is None:
            flat = self._indices.tolist()
            bounds = self._indptr.tolist()
            self._adj_sets = {
                v: set(flat[bounds[v]:bounds[v + 1]]) for v in range(self._n)
            }
        return self._adj_sets

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "AttributedGraph":
        """Return a deep copy of the graph (structure and attributes).

        The copy shares the current CSR (its arrays are immutable) and
        starts without the write form's sets and without a memo.
        """
        clone = AttributedGraph.from_graph_structure(self, self._w)
        clone._attributes = self._attributes.copy()
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
        if np.count_nonzero(index >= 0) != size:
            # A repeated id keeps one position, so another one mismatches.
            repeated = next(node for position, node in enumerate(nodes)
                            if index[node] != position)
            raise ValueError(f"node {repeated} appears more than once in nodes")
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
        generators' internal :meth:`_from_canonical_keys` path: the CSR is
        built immediately with vectorized array operations and no per-edge
        Python work.

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
        # The CSR arrays are immutable, so the clone shares them.
        clone._indptr, clone._indices = graph.csr()
        clone._degree_array = graph._degree_array.copy()
        clone._m = graph.num_edges
        return clone

    def _adopt_directed_keys(self, directed_keys: np.ndarray,
                             num_edges: int) -> None:
        """Install sorted directed edge keys as the graph's whole edge set.

        Resets the degrees, drops the write form's sets and clears the
        memo, so callers replacing the edge set wholesale (the rewiring and
        repair engines' adoption, the bulk constructors) need no further
        invariant bookkeeping.
        """
        self._install_csr(directed_keys)
        self._degree_array = np.diff(dtypes.widen(self._indptr)).astype(
            self._index_dtype, copy=False
        )
        self._adj_sets = None
        self._csr_stale = False
        self._m = int(num_edges)
        self._clear_memo()

    @classmethod
    def from_edges(cls, num_nodes: int, edges: Iterable[Edge],
                   attributes: Optional[np.ndarray] = None) -> "AttributedGraph":
        """Build a graph from an edge iterable and an optional attribute matrix.

        ``attributes`` must be a 2-D ``(num_nodes, w)`` binary matrix.
        """
        num_attributes = 0
        if attributes is not None:
            attributes = np.asarray(attributes)
            if attributes.ndim != 2:
                raise ValueError(
                    "attributes must be a 2-D (num_nodes, w) matrix, got "
                    f"shape {attributes.shape}"
                )
            num_attributes = attributes.shape[1]
        graph = cls(num_nodes, num_attributes)
        graph.add_edges_from(edges)
        if attributes is not None:
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

    def __setstate__(self, state: Dict[str, object]) -> None:
        # Unpickled arrays come back writeable; copies share the CSR, so
        # it is re-frozen on the way in.
        self.__dict__.update(state)
        _read_only(self._indptr)
        _read_only(self._indices)

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
