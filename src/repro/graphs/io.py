"""Reading and writing attributed graphs.

The datasets in the paper (Appendix A) are distributed as whitespace- or
comma-separated edge lists plus per-node attribute tables.  These functions
provide a small, dependency-free interchange format:

* **edge list** — one edge per line, two node labels separated by whitespace
  (or a custom delimiter), ``#``-prefixed comment lines ignored;
* **attribute table** — one node per line: the node label followed by ``w``
  binary attribute values (any value other than 0 or 1 is an error).

Arbitrary node labels are supported; they are mapped onto the contiguous ids
``0 .. n-1`` and the mapping is returned so callers can translate results
back to the original labels.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.graphs.attributed import AttributedGraph

PathLike = Union[str, Path]


def read_edge_list(path: PathLike, delimiter: Optional[str] = None,
                   comment: str = "#") -> List[Tuple[str, str]]:
    """Read an edge list file into a list of ``(label_u, label_v)`` pairs."""
    edges: List[Tuple[str, str]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith(comment):
                continue
            parts = line.split(delimiter) if delimiter else line.split()
            if len(parts) < 2:
                raise ValueError(
                    f"{path}:{line_number}: expected at least two columns, got {line!r}"
                )
            edges.append((parts[0], parts[1]))
    return edges


def read_attribute_table(path: PathLike, delimiter: Optional[str] = None,
                         comment: str = "#") -> Dict[str, List[int]]:
    """Read a node-attribute table: ``label attr_1 ... attr_w`` per line.

    Every value must be 0 or 1; anything else raises ``ValueError`` naming
    ``path:line``.
    """
    table: Dict[str, List[int]] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith(comment):
                continue
            parts = line.split(delimiter) if delimiter else line.split()
            if len(parts) < 2:
                raise ValueError(
                    f"{path}:{line_number}: expected a label and at least one attribute"
                )
            label, values = parts[0], parts[1:]
            try:
                row = [int(v) for v in values]
            except ValueError as exc:
                raise ValueError(
                    f"{path}:{line_number}: attribute values must be integers"
                ) from exc
            if any(value not in (0, 1) for value in row):
                raise ValueError(
                    f"{path}:{line_number}: attribute values must be 0 or 1, "
                    f"got {' '.join(values)}"
                )
            table[label] = row
    return table


def load_attributed_graph(edge_path: PathLike,
                          attribute_path: Optional[PathLike] = None,
                          delimiter: Optional[str] = None,
                          ) -> Tuple[AttributedGraph, Dict[str, int]]:
    """Load an attributed graph from an edge list and optional attribute table.

    Returns
    -------
    (graph, label_to_id):
        The loaded graph (directed duplicates collapsed, self-loops dropped)
        and the mapping from original node labels to contiguous ids.
    """
    raw_edges = read_edge_list(edge_path, delimiter=delimiter)
    attribute_table = (
        read_attribute_table(attribute_path, delimiter=delimiter)
        if attribute_path is not None
        else {}
    )

    labels = set()
    for u, v in raw_edges:
        labels.add(u)
        labels.add(v)
    labels.update(attribute_table.keys())
    ordered = sorted(labels)
    label_to_id = {label: index for index, label in enumerate(ordered)}

    widths = {len(values) for values in attribute_table.values()}
    if len(widths) > 1:
        raise ValueError("attribute table rows have inconsistent widths")
    num_attributes = widths.pop() if widths else 0

    # Vectorized construction: canonicalise, drop self-loops, collapse
    # directed duplicates on the encoded keys, and adopt the CSR directly —
    # no per-edge Python mutation on load.
    n = len(ordered)
    if raw_edges:
        us = np.fromiter(
            (label_to_id[u] for u, _ in raw_edges), dtype=np.int64,
            count=len(raw_edges),
        )
        vs = np.fromiter(
            (label_to_id[v] for _, v in raw_edges), dtype=np.int64,
            count=len(raw_edges),
        )
        loops = us != vs
        keys = np.minimum(us, vs)[loops] * n + np.maximum(us, vs)[loops]
        keys.sort()
        if keys.size > 1:
            keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    else:
        keys = np.empty(0, dtype=np.int64)  # int64: canonical edge-key array
    graph = AttributedGraph._from_canonical_keys(n, keys, num_attributes)
    for label, values in attribute_table.items():
        graph.set_attributes(label_to_id[label], values)
    return graph, label_to_id


def write_edge_list(graph: AttributedGraph, path: PathLike,
                    delimiter: str = " ") -> None:
    """Write the edges of ``graph`` as a plain edge-list file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# undirected edge list written by repro\n")
        for u, v in graph.edges():
            handle.write(f"{u}{delimiter}{v}\n")


def write_attribute_table(graph: AttributedGraph, path: PathLike,
                          delimiter: str = " ") -> None:
    """Write the node attribute matrix of ``graph`` as a table file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# node attribute table written by repro\n")
        for node in graph.nodes():
            values = delimiter.join(str(int(x)) for x in graph.attributes[node])
            handle.write(f"{node}{delimiter}{values}\n".rstrip() + "\n")


def graph_to_payload(graph: AttributedGraph) -> dict:
    """Serialise a graph (structure + attributes) to a JSON-safe dictionary.

    This is the wire format of the synthesis service's ``/sample`` responses
    as well as the body of :func:`save_graph_json` files.
    """
    return {
        "num_nodes": graph.num_nodes,
        "num_attributes": graph.num_attributes,
        "edges": [[int(u), int(v)] for u, v in graph.edges()],
        "attributes": graph.attributes.astype(int).tolist(),
    }


def graph_from_payload(payload: dict) -> AttributedGraph:
    """Rebuild a graph from :func:`graph_to_payload` output."""
    edges = payload["edges"]
    if edges:
        pairs = np.asarray(edges, dtype=np.int64)
        graph = AttributedGraph.from_edge_arrays(
            payload["num_nodes"], pairs[:, 0], pairs[:, 1],
            payload["num_attributes"],
        )
    else:
        graph = AttributedGraph(payload["num_nodes"], payload["num_attributes"])
    if payload["num_attributes"]:
        graph.set_all_attributes(np.asarray(payload["attributes"], dtype=np.int64))
    return graph


def save_graph_json(graph: AttributedGraph, path: PathLike) -> None:
    """Serialise a graph (structure + attributes) to a single JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(graph_to_payload(graph), handle)


def load_graph_json(path: PathLike) -> AttributedGraph:
    """Load a graph previously written by :func:`save_graph_json`."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return graph_from_payload(payload)
