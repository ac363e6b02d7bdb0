"""Tests for the binary columnar wire codec (`repro.graphs.codec`)."""

import json

import numpy as np
import pytest

from repro.graphs import dtypes
from repro.graphs.attributed import AttributedGraph
from repro.graphs.codec import (
    CodecError,
    FRAME_END,
    FRAME_ERROR,
    FRAME_GRAPH,
    FRAME_META,
    FrameReader,
    MAGIC,
    StreamErrorFrame,
    decode_graph_block,
    decode_response,
    dumps_json,
    encode_error_frame,
    encode_frame,
    encode_graph_block,
    encode_response,
    index_dtype,
    iter_response_frames,
    json_default,
)
from repro.core.agm import AgmSynthesizer, learn_agm
from repro.graphs.io import graph_from_payload, graph_to_payload


def _graph(num_nodes=6, num_attributes=2, seed=3, num_edges=8):
    rng = np.random.default_rng(seed)
    pairs = set()
    while len(pairs) < min(num_edges, num_nodes * (num_nodes - 1) // 2):
        u, v = rng.integers(0, num_nodes, size=2)
        if u != v:
            pairs.add((min(int(u), int(v)), max(int(u), int(v))))
    us = np.array([p[0] for p in sorted(pairs)], dtype=np.int64)
    vs = np.array([p[1] for p in sorted(pairs)], dtype=np.int64)
    graph = AttributedGraph.from_edge_arrays(num_nodes, us, vs, num_attributes)
    if num_attributes:
        graph.set_all_attributes(
            rng.integers(0, 2, size=(num_nodes, num_attributes))
        )
    return graph


def _assert_identical(a: AttributedGraph, b: AttributedGraph) -> None:
    assert a.num_nodes == b.num_nodes
    assert a.num_attributes == b.num_attributes
    indptr_a, indices_a = a.csr()
    indptr_b, indices_b = b.csr()
    np.testing.assert_array_equal(indptr_a, indptr_b)
    np.testing.assert_array_equal(indices_a, indices_b)
    assert indices_a.dtype == indices_b.dtype
    np.testing.assert_array_equal(a.attributes, b.attributes)
    assert a.attributes.dtype == b.attributes.dtype


class TestIndexDtype:
    def test_ladder(self):
        assert index_dtype(0) == np.dtype(np.uint8)
        assert index_dtype(1) == np.dtype(np.uint8)
        assert index_dtype(256) == np.dtype(np.uint8)
        assert index_dtype(257) == np.dtype(np.uint16)
        assert index_dtype(65536) == np.dtype(np.uint16)
        assert index_dtype(65537) == np.dtype(np.uint32)
        assert index_dtype(2**32) == np.dtype(np.uint32)
        assert index_dtype(2**32 + 1) == np.dtype(np.uint64)

    def test_negative_rejected(self):
        with pytest.raises(CodecError):
            index_dtype(-1)


class TestGraphBlock:
    def test_round_trip(self):
        graph = _graph()
        _assert_identical(graph, decode_graph_block(encode_graph_block(graph)))

    def test_round_trip_matches_json_path(self):
        graph = _graph(num_nodes=10, num_attributes=3, seed=11)
        via_json = graph_from_payload(graph_to_payload(graph))
        via_binary = decode_graph_block(encode_graph_block(graph))
        _assert_identical(via_json, via_binary)

    def test_empty_graph(self):
        graph = AttributedGraph(0, 0)
        decoded = decode_graph_block(encode_graph_block(graph))
        assert decoded.num_nodes == 0
        assert decoded.num_attributes == 0
        assert decoded.num_edges == 0

    def test_nodes_without_edges(self):
        graph = AttributedGraph(4, 1)
        graph.set_all_attributes(np.array([[1], [0], [1], [0]]))
        _assert_identical(graph, decode_graph_block(encode_graph_block(graph)))

    def test_non_contiguous_node_ids(self):
        # Isolated nodes between and after the edge endpoints.
        us = np.array([0, 5], dtype=np.int64)
        vs = np.array([5, 9], dtype=np.int64)
        graph = AttributedGraph.from_edge_arrays(12, us, vs, 1)
        graph.set_all_attributes(np.arange(12).reshape(12, 1) % 2)
        _assert_identical(graph, decode_graph_block(encode_graph_block(graph)))

    @pytest.mark.parametrize("num_nodes,expected", [
        (255, np.uint8),
        (256, np.uint8),
        (257, np.uint16),
        (65536, np.uint16),
        (65537, np.uint32),
    ])
    def test_width_boundaries(self, num_nodes, expected):
        # An edge touching the maximum node id must survive the narrow cast.
        us = np.array([0], dtype=np.int64)
        vs = np.array([num_nodes - 1], dtype=np.int64)
        graph = AttributedGraph.from_edge_arrays(num_nodes, us, vs, 0)
        block = encode_graph_block(graph)
        header_len = int.from_bytes(block[:4], "little")
        header = json.loads(block[4:4 + header_len])
        assert header["index_dtype"] == np.dtype(expected).str
        decoded = decode_graph_block(block)
        _assert_identical(graph, decoded)
        # In-memory storage follows the storage ladder (narrowest safe
        # width for the node count), independent of the wire width above.
        assert decoded.csr()[1].dtype == dtypes.storage_index_dtype(num_nodes)

    @pytest.mark.parametrize("input_dtype", [
        np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint64,
    ])
    def test_attribute_input_dtypes(self, input_dtype):
        # Whatever integer dtype the caller stored attributes from, the
        # round-trip lands on the canonical uint8 matrix.
        graph = AttributedGraph(3, 2)
        graph.set_all_attributes(
            np.array([[1, 0], [0, 1], [1, 1]], dtype=input_dtype)
        )
        decoded = decode_graph_block(encode_graph_block(graph))
        _assert_identical(graph, decoded)

    def test_out_of_range_index_rejected(self):
        graph = _graph(num_nodes=6)
        block = bytearray(encode_graph_block(graph))
        header_len = int.from_bytes(block[:4], "little")
        header = json.loads(bytes(block[4:4 + header_len]))
        # Shrink the claimed node count below the real max endpoint.
        header["num_nodes"] = 2
        new_header = json.dumps(header).encode()
        tampered = (len(new_header).to_bytes(4, "little") + new_header
                    + bytes(block[4 + header_len:]))
        with pytest.raises(CodecError, match="outside"):
            decode_graph_block(tampered)

    def test_truncated_block_rejected(self):
        block = encode_graph_block(_graph())
        with pytest.raises(CodecError):
            decode_graph_block(block[:10])
        with pytest.raises(CodecError):
            decode_graph_block(b"\x00")

    def test_edge_count_mismatch_rejected(self):
        graph = _graph(num_nodes=6)
        block = bytearray(encode_graph_block(graph))
        header_len = int.from_bytes(block[:4], "little")
        header = json.loads(bytes(block[4:4 + header_len]))
        header["num_edges"] = header["num_edges"] + 1
        new_header = json.dumps(header).encode()
        tampered = (len(new_header).to_bytes(4, "little") + new_header
                    + bytes(block[4 + header_len:]))
        with pytest.raises(CodecError, match="edges"):
            decode_graph_block(tampered)


class TestBackendBitIdentity:
    """Same seed ⇒ same graph ⇒ identical arrays through either codec."""

    @pytest.mark.parametrize("backend", ["tricycle", "fcl"])
    def test_sampled_graph_round_trips_bit_identical(self, backend):
        # 30 edges on 20 nodes: the orphan repair can reach one component.
        source = _graph(num_nodes=20, num_attributes=2, seed=5, num_edges=30)
        params = learn_agm(source, backend=backend)
        synthesizer = AgmSynthesizer(params, num_iterations=1)
        graph = synthesizer.sample(rng=np.random.default_rng(20160626))
        via_json = graph_from_payload(graph_to_payload(graph))
        via_binary = decode_graph_block(encode_graph_block(graph))
        _assert_identical(via_json, via_binary)
        _assert_identical(graph, via_binary)


class TestFrames:
    def test_response_round_trip(self):
        graphs = [_graph(seed=s) for s in range(3)]
        meta = {"count": 3, "seed": 1, "artifact_id": "art-x"}
        out = decode_response(encode_response(meta, graphs))
        assert out["count"] == 3
        assert out["artifact_id"] == "art-x"
        assert len(out["graphs"]) == 3
        for original, decoded in zip(graphs, out["graphs"]):
            _assert_identical(original, decoded)

    def test_streamed_pieces_concatenate_to_buffered_body(self):
        graphs = [_graph(seed=s) for s in range(2)]
        meta = {"count": 2}
        pieces = list(iter_response_frames(meta, iter(graphs)))
        assert b"".join(pieces) == encode_response(meta, graphs)
        # meta piece + one per graph + terminal
        assert len(pieces) == 4

    @pytest.mark.parametrize("chunk_size", [1, 3, 7, 64, 10**6])
    def test_frame_reader_arbitrary_chunking(self, chunk_size):
        graphs = [_graph(seed=s) for s in range(2)]
        body = encode_response({"count": 2}, graphs)
        reader = FrameReader()
        frames = []
        for start in range(0, len(body), chunk_size):
            frames.extend(reader.feed(body[start:start + chunk_size]))
        reader.close()
        kinds = [kind for kind, _ in frames]
        assert kinds == [FRAME_META, FRAME_GRAPH, FRAME_GRAPH, FRAME_END]
        for (kind, payload), original in zip(frames[1:3], graphs):
            _assert_identical(original, decode_graph_block(payload))

    def test_truncated_stream_detected(self):
        body = encode_response({"count": 1}, [_graph()])
        reader = FrameReader()
        reader.feed(body[:-1])
        with pytest.raises(CodecError, match="terminal"):
            reader.close()

    def test_bad_magic_rejected(self):
        reader = FrameReader()
        with pytest.raises(CodecError, match="magic"):
            reader.feed(b"NOPE\x01" + b"\x00" * 16)

    def test_unknown_frame_kind_rejected(self):
        reader = FrameReader()
        with pytest.raises(CodecError, match="unknown frame kind"):
            reader.feed(MAGIC + encode_frame(ord("Q"), b""))

    def test_trailing_bytes_rejected(self):
        body = encode_response({"count": 0}, [])
        reader = FrameReader()
        with pytest.raises(CodecError, match="after the terminal"):
            reader.feed(body + b"x")

    def test_error_frame_raises_with_structure(self):
        body = (MAGIC
                + encode_frame(FRAME_META, b'{"count": 5}')
                + encode_error_frame({"error": {
                    "code": "deadline_exceeded",
                    "message": "too slow",
                    "retryable": True,
                }}))
        with pytest.raises(StreamErrorFrame) as excinfo:
            decode_response(body)
        assert excinfo.value.error["code"] == "deadline_exceeded"
        assert excinfo.value.error["retryable"] is True

    def test_missing_meta_rejected(self):
        body = MAGIC + encode_frame(FRAME_END)
        with pytest.raises(CodecError, match="meta"):
            decode_response(body)


class TestStrictJson:
    def test_numpy_scalars_converted(self):
        doc = json.loads(dumps_json({
            "i": np.int32(7),
            "f": np.float64(0.5),
            "b": np.bool_(True),
            "a": np.array([1, 2, 3]),
        }))
        assert doc == {"i": 7, "f": 0.5, "b": True, "a": [1, 2, 3]}
        assert isinstance(doc["i"], int)

    def test_unknown_types_raise(self):
        with pytest.raises(TypeError, match="not JSON serialisable"):
            dumps_json({"x": object()})
        with pytest.raises(TypeError):
            json_default(object())
