"""Request-lifecycle hardening: body caps, budget admission, backpressure,
deadlines and graceful drain — all with structured, retryable-flagged errors.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service import ReleaseServer
from repro.testing.faults import FaultPlan, FaultPoint

SPEC_DOC = {
    "spec_version": 1,
    "dataset": "petster", "scale": 0.03, "seed": 3,
    "epsilon": 1.0, "backend": "fcl", "num_iterations": 1,
}


def _post(url, payload, timeout=60):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read()), response.headers


def _error(url, payload, timeout=60):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(url, payload, timeout=timeout)
    exc = excinfo.value
    return exc.code, json.loads(exc.read()), exc.headers


class TestBodyCap:
    def test_oversized_body_is_structured_413(self):
        with ReleaseServer(port=0, workers=1, max_body_bytes=256) as server:
            big = {**SPEC_DOC, "padding": "x" * 1024}
            code, body, _headers = _error(server.url + "/fit", big)
            assert code == 413
            assert body["error"]["code"] == "payload_too_large"
            assert body["error"]["retryable"] is False
            assert "REPRO_MAX_BODY_BYTES" in body["error"]["message"]

    def test_body_under_the_cap_passes(self):
        with ReleaseServer(port=0, workers=1, max_body_bytes=4096) as server:
            status, result, _headers = _post(server.url + "/fit", SPEC_DOC)
            assert status == 200
            assert result["cache_hit"] is False


class TestBudgetAdmission:
    def test_over_budget_fit_is_rejected_before_any_work(self, tmp_path):
        with ReleaseServer(port=0, workers=1, ledger_dir=tmp_path,
                           tenant_budget=1.5) as server:
            status, _result, _headers = _post(server.url + "/fit", SPEC_DOC)
            assert status == 200

            # A second distinct fit would need 1.0 more than the 0.5 left;
            # it is rejected up front and no fit (or ε reserve) happens.
            fits_before = json.loads(urllib.request.urlopen(
                server.url + "/healthz").read())["fits"]
            code, body, _headers = _error(server.url + "/fit",
                                          {**SPEC_DOC, "seed": 99})
            assert code == 403
            assert body["error"]["code"] == "over_budget"
            assert body["error"]["retryable"] is False
            fits_after = json.loads(urllib.request.urlopen(
                server.url + "/healthz").read())["fits"]
            assert fits_after == fits_before

    def test_cached_artifact_needs_no_budget(self, tmp_path):
        with ReleaseServer(port=0, workers=1, ledger_dir=tmp_path,
                           tenant_budget=1.0) as server:
            _post(server.url + "/fit", SPEC_DOC)  # spends the whole budget
            # Sampling the cached artifact is free post-processing.
            status, result, _headers = _post(
                server.url + "/sample",
                {"spec": SPEC_DOC, "count": 1, "seed": 5},
            )
            assert status == 200
            assert result["cache_hit"] is True

    def test_tenants_have_independent_budgets(self, tmp_path):
        with ReleaseServer(port=0, workers=1, ledger_dir=tmp_path,
                           tenant_budget=1.0) as server:
            _post(server.url + "/fit", {**SPEC_DOC, "tenant": "alice"})
            code, body, _headers = _error(
                server.url + "/fit",
                {**SPEC_DOC, "seed": 99, "tenant": "alice"})
            assert body["error"]["code"] == "over_budget"
            # bob still has headroom for the same (cached!) spec — no fit
            # happens, so not even bob's budget is touched.
            status, result, _headers = _post(
                server.url + "/fit", {**SPEC_DOC, "tenant": "bob"})
            assert status == 200
            assert result["cache_hit"] is True


    @pytest.mark.parametrize("name, value", [
        ("rewire_equivalence", "distributional"), ("handle_orphans", False),
    ])
    def test_retired_option_is_400_and_spends_nothing(self, tmp_path, name,
                                                      value):
        # Rewiring has one engine and the orphan repair always runs; an
        # old spec asking otherwise must fail validation before any
        # reserve, not fit under the option it did not ask for.
        with ReleaseServer(port=0, workers=1, ledger_dir=tmp_path,
                           tenant_budget=3.0) as server:
            _post(server.url + "/fit", {**SPEC_DOC, "tenant": "alice"})
            before = json.loads(urllib.request.urlopen(
                server.url + "/ledgers").read())
            code, body, _headers = _error(
                server.url + "/fit",
                {**SPEC_DOC, "seed": 99, "tenant": "alice", name: value})
            assert code == 400
            assert body["error"]["code"] == "invalid_request"
            assert body["error"]["field"] == name
            after = json.loads(urllib.request.urlopen(
                server.url + "/ledgers").read())
            assert before["ledgers"]["alice"]["spent"] == pytest.approx(1.0)
            assert after == before


class TestRateLimit:
    def test_burst_exhaustion_is_429_with_retry_after(self):
        with ReleaseServer(port=0, workers=2, rate_limit=0.5,
                           rate_burst=2) as server:
            _post(server.url + "/fit", SPEC_DOC)          # token 1
            _post(server.url + "/fit", SPEC_DOC)          # token 2 (cache hit)
            code, body, headers = _error(server.url + "/fit", SPEC_DOC)
            assert code == 429
            assert body["error"]["code"] == "over_rate"
            assert body["error"]["retryable"] is True
            retry_after = float(headers["Retry-After"])
            assert 0.0 < retry_after <= 2.1
            assert body["error"]["retry_after"] == pytest.approx(
                retry_after, abs=1e-3)

    def test_tenants_are_limited_independently(self):
        with ReleaseServer(port=0, workers=2, rate_limit=0.01,
                           rate_burst=1) as server:
            _post(server.url + "/fit", {**SPEC_DOC, "tenant": "alice"})
            code, body, _headers = _error(server.url + "/fit",
                                          {**SPEC_DOC, "tenant": "alice"})
            assert body["error"]["code"] == "over_rate"
            # bob's bucket is untouched.
            status, _result, _headers = _post(
                server.url + "/fit", {**SPEC_DOC, "tenant": "bob"})
            assert status == 200


class TestOverload:
    def test_full_admission_queue_is_429_overloaded(self):
        release = threading.Event()
        entered = threading.Event()

        def block(_point, _hit):
            entered.set()
            assert release.wait(timeout=60)

        point = FaultPoint(name="pipeline.stage.estimate.start", action=block)
        with ReleaseServer(port=0, workers=1, queue_depth=1) as server:
            with FaultPlan([point]):
                slow = threading.Thread(
                    target=lambda: _post(server.url + "/fit", SPEC_DOC))
                slow.start()
                try:
                    assert entered.wait(timeout=60)
                    # Queue depth 1 is taken by the blocked fit.
                    code, body, headers = _error(
                        server.url + "/fit", {**SPEC_DOC, "seed": 9},
                    )
                    assert code == 429
                    assert body["error"]["code"] == "overloaded"
                    assert body["error"]["retryable"] is True
                    assert float(headers["Retry-After"]) > 0
                finally:
                    release.set()
                    slow.join(timeout=60)
            status, _result, _headers = _post(server.url + "/fit", SPEC_DOC)
            assert status == 200  # the queue slot was released


class TestDeadline:
    def test_slow_fit_is_504_deadline_exceeded(self):
        def stall(_point, _hit):
            time.sleep(0.05)

        point = FaultPoint(name="pipeline.stage.estimate.start", action=stall)
        with ReleaseServer(port=0, workers=1,
                           request_timeout=0.04) as server:
            with FaultPlan([point]):
                code, body, _headers = _error(server.url + "/fit", SPEC_DOC)
            assert code == 504
            assert body["error"]["code"] == "deadline_exceeded"
            assert body["error"]["retryable"] is True

    def test_deadline_trips_at_a_stage_checkpoint(self):
        def stall(_point, _hit):
            time.sleep(0.05)

        # Burn the whole deadline before the job starts; the cooperative
        # checkpoint at the first pipeline stage boundary must trip it.
        point = FaultPoint(name="server.job.submit", action=stall)
        with ReleaseServer(port=0, workers=1, request_timeout=0.04) as fast:
            with FaultPlan([point]):
                code, body, _headers = _error(
                    fast.url + "/sample",
                    {"spec": SPEC_DOC, "count": 3},
                )
            assert code == 504
            assert body["error"]["code"] == "deadline_exceeded"


class TestGracefulDrain:
    def test_drain_finishes_in_flight_and_rejects_new_work(self, tmp_path):
        release = threading.Event()
        entered = threading.Event()
        outcome = {}

        def block(_point, _hit):
            entered.set()
            assert release.wait(timeout=60)

        point = FaultPoint(name="pipeline.stage.estimate.start", action=block)
        server = ReleaseServer(port=0, workers=1, ledger_dir=tmp_path).start()
        try:
            with FaultPlan([point]):
                def slow_fit():
                    outcome["status"], outcome["body"], _ = _post(
                        server.url + "/fit", SPEC_DOC)

                slow = threading.Thread(target=slow_fit)
                slow.start()
                assert entered.wait(timeout=60)

                drainer = threading.Thread(target=server.drain)
                drainer.start()
                # New work is rejected while the old fit drains out.
                deadline = time.monotonic() + 10
                while not server.draining and time.monotonic() < deadline:
                    time.sleep(0.005)
                code, body, _headers = _error(server.url + "/fit",
                                              {**SPEC_DOC, "seed": 9})
                assert code == 503
                assert body["error"]["code"] == "draining"
                assert body["error"]["retryable"] is True

                release.set()
                slow.join(timeout=60)
                drainer.join(timeout=60)

            # The in-flight fit completed and its spend was flushed durably.
            assert outcome["status"] == 200
            ledger_file = tmp_path / "public.ledger.jsonl"
            assert ledger_file.exists()
            content = ledger_file.read_text()
            assert '"kind":"snapshot"' in content  # drained = compacted
        finally:
            release.set()
            server.close()

    def test_healthz_reports_draining(self):
        server = ReleaseServer(port=0, workers=1).start()
        try:
            server.drain()
            assert server.draining
        finally:
            server.close()
