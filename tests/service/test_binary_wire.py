"""HTTP-level tests of the negotiated binary codec and streamed samples."""

import json
import urllib.error
import urllib.request

import pytest

from repro.api import ReleaseSession, ReleaseSpec
from repro.graphs import codec
from repro.graphs.io import graph_from_payload
from repro.service import ReleaseServer, ServiceClient, ServiceClientError
from repro.service.errors import ServiceError
from repro.service.server import negotiate_codec

SPEC_DOC = {
    "spec_version": 1,
    "dataset": "petster", "scale": 0.03, "seed": 3,
    "epsilon": 1.0, "backend": "tricycle", "num_iterations": 1,
}


@pytest.fixture(scope="module")
def server():
    with ReleaseServer(port=0, workers=2) as running:
        yield running


def _post(url, payload, accept=None):
    headers = {"Content-Type": "application/json"}
    if accept is not None:
        headers["Accept"] = accept
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"), headers=headers,
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.status, dict(response.headers), response.read()


def _assert_graphs_identical(a, b):
    assert a.num_nodes == b.num_nodes
    assert a.num_attributes == b.num_attributes
    assert list(a.edges()) == list(b.edges())
    assert (a.attributes == b.attributes).all()


class TestBufferedBinary:
    def test_negotiated_binary_round_trip(self, server):
        payload = {"spec": SPEC_DOC, "count": 2, "seed": 11}
        status, headers, body = _post(
            server.url + "/sample", payload,
            accept=codec.CONTENT_TYPE_BINARY,
        )
        assert status == 200
        assert headers["Content-Type"] == codec.CONTENT_TYPE_BINARY
        decoded = codec.decode_response(body)
        assert decoded["count"] == 2
        assert decoded["seed"] == 11
        assert len(decoded["graphs"]) == 2

        # Bit-identical to the JSON codec's graphs for the same request.
        _status, _headers, json_body = _post(server.url + "/sample", payload)
        json_result = json.loads(json_body)
        assert json_result["spec_hash"] == decoded["spec_hash"]
        for binary_graph, payload_doc in zip(decoded["graphs"],
                                             json_result["graphs"]):
            _assert_graphs_identical(binary_graph,
                                     graph_from_payload(payload_doc))

    def test_binary_wins_when_both_offered(self, server):
        payload = {"spec": SPEC_DOC, "count": 1, "seed": 1}
        _status, headers, body = _post(
            server.url + "/sample", payload,
            accept=f"application/json, {codec.CONTENT_TYPE_BINARY}",
        )
        assert headers["Content-Type"] == codec.CONTENT_TYPE_BINARY
        codec.decode_response(body)

    def test_fit_stays_json_regardless_of_accept(self, server):
        status, headers, body = _post(
            server.url + "/fit", SPEC_DOC,
            accept=codec.CONTENT_TYPE_BINARY,
        )
        assert status == 200
        assert headers["Content-Type"] == codec.CONTENT_TYPE_JSON
        json.loads(body)

    def test_unsupported_accept_is_406(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server.url + "/sample",
                  {"spec": SPEC_DOC, "count": 1},
                  accept="text/html")
        assert excinfo.value.code == 406
        error = json.loads(excinfo.value.read())["error"]
        assert error["code"] == "not_acceptable"
        assert error["retryable"] is False


class TestStreaming:
    def test_streamed_body_equals_buffered_body(self, server):
        payload = {"spec": SPEC_DOC, "count": 3, "seed": 4}
        _s, _h, buffered = _post(server.url + "/sample", payload,
                                 accept=codec.CONTENT_TYPE_BINARY)
        _s, headers, streamed = _post(
            server.url + "/sample", {**payload, "stream": True},
            accept=codec.CONTENT_TYPE_BINARY,
        )
        # urllib de-chunks; the reassembled stream is byte-identical to the
        # buffered response, which is the codec's core invariant.
        assert headers["Content-Type"] == codec.CONTENT_TYPE_BINARY
        assert streamed == buffered

    def test_stream_with_json_codec_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server.url + "/sample",
                  {"spec": SPEC_DOC, "count": 1, "stream": True})
        assert excinfo.value.code == 400
        error = json.loads(excinfo.value.read())["error"]
        assert error["code"] == "invalid_request"
        assert error["field"] == "stream"

    def test_stream_pre_byte_failure_is_plain_http_error(self, server):
        # Validation fails before the first byte: a normal 400, not an
        # in-band E frame.
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server.url + "/sample",
                  {"spec": SPEC_DOC, "count": 0, "stream": True},
                  accept=codec.CONTENT_TYPE_BINARY)
        assert excinfo.value.code == 400


class TestClientBinary:
    def test_sample_binary_buffered(self, server):
        client = ServiceClient(server.url)
        meta, graphs = client.sample_binary(spec=SPEC_DOC, count=2, seed=11)
        assert meta["count"] == 2
        assert len(graphs) == 2
        json_result = client.sample(spec=SPEC_DOC, count=2, seed=11)
        for graph, payload_doc in zip(graphs, json_result["graphs"]):
            _assert_graphs_identical(graph, graph_from_payload(payload_doc))

    def test_sample_binary_streamed_matches_buffered(self, server):
        client = ServiceClient(server.url)
        meta_a, graphs_a = client.sample_binary(spec=SPEC_DOC, count=2,
                                                seed=7)
        meta_b, graphs_b = client.sample_binary(spec=SPEC_DOC, count=2,
                                                seed=7, stream=True)
        assert meta_a == meta_b
        for a, b in zip(graphs_a, graphs_b):
            _assert_graphs_identical(a, b)

    def test_sample_binary_surfaces_http_errors(self, server):
        client = ServiceClient(server.url, max_attempts=1)
        with pytest.raises(ServiceClientError) as excinfo:
            client.sample_binary(artifact_id="no-such-artifact", count=1)
        assert excinfo.value.status == 404

    def test_served_binary_sample_bit_identical_to_direct_call(self, server):
        client = ServiceClient(server.url)
        _meta, graphs = client.sample_binary(spec=SPEC_DOC, count=1, seed=42)
        session = ReleaseSession()
        artifact = session.fit(ReleaseSpec.from_dict(SPEC_DOC))
        direct = session.sample(artifact, count=1, seed=42)[0]
        _assert_graphs_identical(graphs[0], direct)


class TestStrictJsonResponses:
    def test_numeric_fields_stay_numbers(self, server):
        # The old default=str encoder could silently ship numpy scalars as
        # strings; the strict encoder converts them to JSON numbers.
        _s, _h, body = _post(server.url + "/fit", SPEC_DOC)
        fit = json.loads(body)
        assert isinstance(fit["epsilon"], float)
        for value in fit["accountant"]["spends"].values():
            assert isinstance(value, (int, float))


class TestNegotiateCodec:
    """How an ``Accept`` header is parsed, without a server."""

    @pytest.mark.parametrize("accept", [
        None,
        "  ",
        "application/*",
        "text/html, application/json; charset=utf-8",
    ])
    def test_json(self, accept):
        assert negotiate_codec(accept) == "json"

    def test_binary_ignores_case_and_parameters(self):
        accept = "application/json;q=1, Application/X-Repro-Npy ; q=0.1"
        assert negotiate_codec(accept) == "binary"

    def test_no_supported_codec_is_406(self):
        with pytest.raises(ServiceError) as excinfo:
            negotiate_codec("text/*, image/png")
        assert (excinfo.value.code, excinfo.value.http_status) == \
            ("not_acceptable", 406)
