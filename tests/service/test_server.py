"""End-to-end tests of the HTTP synthesis service.

The acceptance contract: fit-once-sample-many works over HTTP — a second
``POST /sample`` against the same spec hash performs no fit and spends no
additional ε (the accountant ledger is unchanged), and a served sample at
seed ``s`` is bit-identical to :meth:`ReleaseSession.sample` called directly
at seed ``s``.
"""

import json
import os
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.api import ArtifactStore, ReleaseSession, ReleaseSpec
from repro.graphs import codec
from repro.graphs.io import graph_from_payload
from repro.service import ReleaseServer

REPO_ROOT = Path(__file__).resolve().parents[2]

SPEC_DOC = {
    "spec_version": 1,
    "dataset": "petster", "scale": 0.03, "seed": 3,
    "epsilon": 1.0, "backend": "tricycle", "num_iterations": 1,
}

#: A second, cheap spec (FCL backend) for the concurrency test.
FCL_SPEC_DOC = {**SPEC_DOC, "backend": "fcl", "seed": 5}


def _call(url, payload=None):
    if payload is None:
        request = urllib.request.Request(url)
    else:
        request = urllib.request.Request(
            url, data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.status, json.loads(response.read())


def _error(url, payload=None):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _call(url, payload)
    return excinfo.value.code, json.loads(excinfo.value.read())


@pytest.fixture(scope="module")
def server():
    with ReleaseServer(port=0, workers=2) as running:
        yield running


class TestLifecycle:
    def test_closing_a_server_that_never_served_returns(self):
        # socketserver's shutdown() waits for a serve loop to exit, and
        # none ran.  The daemon thread bounds the wait, so a regression
        # fails here instead of hanging the suite.
        server = ReleaseServer(port=0, workers=1)
        closer = threading.Thread(target=server.close, daemon=True)
        closer.start()
        closer.join(timeout=10)
        assert not closer.is_alive()

    @pytest.mark.parametrize("argument, value", [
        *[("request_timeout", value)
          for value in (0, -1, float("nan"), float("inf"))],
        *[("max_body_bytes", value) for value in (0, -5)],
    ])
    def test_bad_explicit_limits_raise_before_any_store(self, tmp_path,
                                                        argument, value):
        ledgers = tmp_path / "ledgers"
        with pytest.raises(ValueError, match=f"{argument} must"):
            ReleaseServer(port=0, workers=1, ledger_dir=ledgers,
                          **{argument: value})
        assert not ledgers.exists()

    def test_serve_with_a_bad_timeout_fails_at_startup(self):
        # A timeout the server accepted would leave the CLI serving; the
        # subprocess timeout bounds that failure.
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--request-timeout", "-1"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode != 0
        assert "request_timeout must be a finite positive" in done.stderr


class TestEndpoints:
    def test_healthz(self, server):
        status, health = _call(server.url + "/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["workers"] == 2

    def test_fit_once_sample_many_over_http(self, server):
        base = server.url
        status, fit = _call(base + "/fit", SPEC_DOC)
        assert status == 200
        assert fit["cache_hit"] is False
        assert sum(fit["accountant"]["spends"].values()) == pytest.approx(1.0)

        # Second fit of the same spec: served from the cache, no learning.
        status, refit = _call(base + "/fit", SPEC_DOC)
        assert refit["cache_hit"] is True
        assert refit["artifact_id"] == fit["artifact_id"]

        # Two sample requests against the same spec hash.
        status, first = _call(base + "/sample",
                              {"spec": SPEC_DOC, "count": 2, "seed": 11})
        assert status == 200
        assert first["cache_hit"] is True  # no fit performed
        status, second = _call(base + "/sample",
                               {"artifact_id": fit["artifact_id"],
                                "count": 2, "seed": 11})
        assert second["graphs"] == first["graphs"]  # deterministic serving

        # The ledger is unchanged by sampling: pure post-processing.
        status, artifact = _call(base + f"/artifacts/{fit['artifact_id']}")
        assert artifact["accountant"] == fit["accountant"]

        # Exactly one fit happened across all requests above.
        _status, health = _call(base + "/healthz")
        assert health["fits"] == 1
        assert health["artifacts"] == 1

    def test_served_sample_bit_identical_to_direct_call(self, server):
        status, served = _call(server.url + "/sample",
                               {"spec": SPEC_DOC, "count": 1, "seed": 21})
        assert status == 200

        session = ReleaseSession()
        spec = ReleaseSpec.from_dict(SPEC_DOC)
        direct = session.sample(session.fit(spec), count=1, seed=21)
        for payload, graph in zip(served["graphs"], direct):
            assert graph_from_payload(payload) == graph

    def test_concurrent_samples_share_one_fit(self, server):
        """Four concurrent first requests for a fresh spec fit exactly once."""
        _status, before = _call(server.url + "/healthz")

        def one_sample(seed):
            return _call(server.url + "/sample",
                         {"spec": FCL_SPEC_DOC, "count": 1, "seed": seed})

        with ThreadPoolExecutor(max_workers=4) as pool:
            responses = list(pool.map(one_sample, range(4)))
        assert all(status == 200 for status, _body in responses)
        assert all(body["artifact_id"] == responses[0][1]["artifact_id"]
                   for _status, body in responses)

        _status, after = _call(server.url + "/healthz")
        assert after["fits"] == before["fits"] + 1  # single-flighted fit

    def test_artifact_listing(self, server):
        _call(server.url + "/fit", SPEC_DOC)
        status, listing = _call(server.url + "/artifacts")
        assert status == 200
        assert any(entry["backend"] == "tricycle"
                   for entry in listing["artifacts"])


class TestStreamAdmission:
    def test_streamed_request_holds_its_slot_until_closed(self, server):
        stream = server.execute_stream(
            {"spec": SPEC_DOC, "count": 2, "seed": 4})
        assert server.health()["in_flight"] == 0  # admitted on first next()
        assert next(stream).startswith(codec.MAGIC)
        assert server.health()["in_flight"] == 1
        stream.close()
        assert server.health()["in_flight"] == 0

    def test_finished_stream_releases_its_slot(self, server):
        pieces = list(server.execute_stream(
            {"spec": SPEC_DOC, "count": 2, "seed": 4}))
        assert len(pieces) == 4  # meta, two graphs, end
        assert server.health()["in_flight"] == 0


class TestErrors:
    """Every failure is structured: {"error": {code, message, retryable}}."""

    def test_invalid_spec_is_400_naming_the_field(self, server):
        bad = {**SPEC_DOC, "epsilon": -2.0}
        code, body = _error(server.url + "/fit", bad)
        assert code == 400
        assert body["error"]["code"] == "invalid_request"
        assert body["error"]["field"] == "epsilon"
        assert body["error"]["message"].startswith("epsilon:")
        assert body["error"]["retryable"] is False

    def test_sample_without_spec_or_artifact_is_400(self, server):
        code, body = _error(server.url + "/sample", {"count": 1})
        assert code == 400
        assert body["error"]["code"] == "invalid_request"
        assert "artifact_id" in body["error"]["message"]

    def test_sample_rejects_unwrapped_spec(self, server):
        # /sample control fields (count, seed) live beside the spec, so a
        # bare spec document is ambiguous (whose seed?) and is rejected.
        code, body = _error(server.url + "/sample", {**SPEC_DOC, "count": 1})
        assert code == 400
        assert body["error"]["field"] == "spec"

    def test_bad_count_is_400(self, server):
        code, body = _error(server.url + "/sample",
                            {"spec": SPEC_DOC, "count": 0})
        assert code == 400
        assert body["error"]["field"] == "count"

    def test_oversized_count_is_400(self, server):
        code, body = _error(server.url + "/sample",
                            {"spec": SPEC_DOC, "count": 1_000_000})
        assert code == 400
        assert body["error"]["field"] == "count"
        assert "at most" in body["error"]["message"]

    def test_negative_seed_is_400(self, server):
        code, body = _error(server.url + "/sample",
                            {"spec": SPEC_DOC, "count": 1, "seed": -5})
        assert code == 400
        assert body["error"]["field"] == "seed"

    def test_unknown_artifact_is_404(self, server):
        code, body = _error(server.url + "/sample",
                            {"artifact_id": "art-deadbeef"})
        assert code == 404
        assert body["error"]["code"] == "not_found"
        assert body["error"]["retryable"] is False
        code, body = _error(server.url + "/artifacts/art-deadbeef")
        assert code == 404
        assert body["error"]["code"] == "not_found"

    def test_unknown_path_is_404(self, server):
        code, body = _error(server.url + "/nope", {})
        assert code == 404
        assert body["error"]["code"] == "not_found"

    def test_non_json_body_is_400(self, server):
        request = urllib.request.Request(
            server.url + "/fit", data=b"not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=60)
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert body["error"]["code"] == "invalid_request"

    def test_stored_artifact_with_unknown_backend_is_400(self, tmp_path):
        # A stored artifact naming a backend this build lacks is a format
        # error: not retryable, so clients do not hammer a broken store.
        spec = ReleaseSpec.from_dict(FCL_SPEC_DOC)
        store = ArtifactStore(tmp_path / "artifacts")
        path = store.put(ReleaseSession().fit(spec))
        document = json.loads(path.read_text())
        document["parameters"]["backend"] = "ergm"
        path.write_text(json.dumps(document))
        with ReleaseServer(port=0, workers=1,
                           artifact_dir=tmp_path / "artifacts") as running:
            code, body = _error(running.url + "/fit", FCL_SPEC_DOC)
        assert code == 400
        assert body["error"]["code"] == "invalid_request"
        assert "unknown backend 'ergm'" in body["error"]["message"]
        assert body["error"]["retryable"] is False
