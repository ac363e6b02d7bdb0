"""The attribute histogram and the sorted degree sequence, on neighbours.

LearnAttributesDP (Algorithm 5) adds ``Lap(2/ε)`` to the attribute
configuration counts, and the degree mechanism adds ``Lap(2/ε)`` to the
sorted degree sequence before constrained inference.  Each is ε-DP only
if its counts move by at most the declared sensitivity in L1 between
neighbouring graphs: attribute-adjacent graphs for the histogram
(Theorem 8), edge-adjacent graphs for the degrees.  These tests run the
production counting paths, before any noise:

* every node of small graphs is set to every attribute vector through
  ``set_attributes`` and ``attribute_configuration_counts`` is re-counted,
  plus one graph large enough that a memory budget splits the count into
  several blocks;
* every node pair is toggled through ``add_edge`` / ``remove_edge`` and
  the degrees ``fit_fcl_dp`` releases are re-read with the noise zeroed.

Both bounds are attained.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attributes.encoding import AttributeEncoder
from repro.graphs.attributed import AttributedGraph
from repro.params import structural
from repro.params.attribute_distribution import (
    ATTRIBUTE_HISTOGRAM_SENSITIVITY,
    attribute_configuration_counts,
)
from repro.privacy import constrained_inference
from repro.privacy.constrained_inference import DEGREE_SEQUENCE_SENSITIVITY

graph_specs = st.integers(min_value=2, max_value=9).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=3 * n,
        ),
        st.integers(1, 2).flatmap(lambda w: st.lists(
            st.lists(st.integers(0, 1), min_size=w, max_size=w),
            min_size=n, max_size=n,
        )),
    )
)


def _build(num_nodes, edges, attributes):
    graph = AttributedGraph(num_nodes, len(attributes[0]))
    for u, v in edges:
        if u != v:
            graph.add_edge(u, v)
    graph.set_all_attributes(np.array(attributes, dtype=np.uint8))
    return graph


def _attribute_changes(graph, nodes):
    """L1 change of the histogram for every node in ``nodes`` × vector."""
    base = attribute_configuration_counts(graph)
    changes = []
    for node in nodes:
        original = graph.get_attributes(node)
        for vector in itertools.product((0, 1), repeat=graph.num_attributes):
            graph.set_attributes(node, vector)
            counts = attribute_configuration_counts(graph)
            changes.append(float(np.abs(counts - base).sum()))
        graph.set_attributes(node, original)
    assert np.array_equal(attribute_configuration_counts(graph), base)
    return changes


def _released_degrees(graph):
    """``fit_fcl_dp``'s degree release with the Laplace noise zeroed."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(constrained_inference, "laplace_noise",
                      lambda scale, size, rng=None: np.zeros(size))
        return structural.fit_fcl_dp(graph, 1.0, rng=0).degrees


@settings(max_examples=120, deadline=None)
@given(graph_specs)
def test_attribute_changes_move_the_histogram_by_at_most_two(spec):
    graph = _build(*spec)
    changes = _attribute_changes(graph, range(graph.num_nodes))
    assert max(changes) <= ATTRIBUTE_HISTOGRAM_SENSITIVITY
    assert max(changes) == ATTRIBUTE_HISTOGRAM_SENSITIVITY  # always attained


def test_chunked_histogram_under_a_memory_budget(monkeypatch):
    # 1 MiB at 48 B per row (w = 2) gives 21 845-row blocks, so 3 blocks
    # and a short tail; check nodes on both sides of every block boundary.
    monkeypatch.setenv("REPRO_MEMORY_BUDGET_MB", "1")
    encodes = []
    encode_matrix = AttributeEncoder.encode_matrix

    def counted(encoder, block):
        encodes.append(block.shape[0])
        return encode_matrix(encoder, block)

    monkeypatch.setattr(AttributeEncoder, "encode_matrix", counted)
    n = 3 * 21845 + 13
    graph = AttributedGraph(n, 2)
    graph.set_all_attributes(np.random.default_rng(4).integers(0, 2, (n, 2)))
    attribute_configuration_counts(graph)
    assert len(encodes) == 4 and sum(encodes) == n
    boundaries = np.cumsum(encodes)[:-1]
    nodes = sorted({0, n - 1, *boundaries.tolist(), *(boundaries - 1).tolist()})
    changes = _attribute_changes(graph, nodes)
    assert max(changes) == ATTRIBUTE_HISTOGRAM_SENSITIVITY


@settings(max_examples=120, deadline=None)
@given(graph_specs)
def test_edge_toggles_move_sorted_degrees_by_at_most_two(spec):
    graph = _build(*spec)
    base = np.sort(graph.degrees())
    assert np.array_equal(_released_degrees(graph), base)
    changes = []
    for u, v in itertools.combinations(range(graph.num_nodes), 2):
        added = graph.add_edge(u, v)
        if not added:
            graph.remove_edge(u, v)
        released = _released_degrees(graph)
        assert np.array_equal(released, np.sort(graph.degrees()))
        changes.append(int(np.abs(released - base).sum()))
        if added:
            graph.remove_edge(u, v)
        else:
            graph.add_edge(u, v)
    assert np.array_equal(np.sort(graph.degrees()), base)
    assert max(changes) <= DEGREE_SEQUENCE_SENSITIVITY
    assert max(changes) == DEGREE_SEQUENCE_SENSITIVITY  # always attained
