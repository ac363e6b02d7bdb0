"""The ``serve-mixed`` workload: the served path, closed loop.

One run starts the daemon (``repro serve --workers 2 --ledger-dir ...
--artifact-dir ...`` through ``perfbench/launcher.py``) on a fresh
directory, serving lastfm (scale 1.0), FCL, ε = 1, and drives it from this
process with 2 keep-alive connections, each sending its next request when
the previous one answered.  Of every 20 requests, 19 are a warm binary
``POST /sample`` at a fresh seed and 1 is a cold ``POST /fit`` at a fresh
spec seed, which spends ε through the ledger and writes the artifact store.

Set-up (start, one warm fit, one warm sample) runs five times on fresh
directories; the last server stays up for the timed loop.  After the loop
the benchmark decodes every 5th served graph and checks it, and checks
once that a served graph is bit-identical to ``ModelArtifact.sample`` at
the same artifact and seed.
"""

from __future__ import annotations

import http.client
import itertools
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import fixture
import spans
from release import EPSILON, REFERENCE_FIT_SEED

CONTENT_TYPE_BINARY = "application/x-repro-npy"
MAGIC = b"RAGB\x01"
CONNECTIONS = 2
FIT_EVERY = 20
SETUP_REPEATS = 5
DECODE_EVERY = 5
PROBE_REQUESTS = 60


class Server:
    """One launcher subprocess serving from its own directory."""

    def __init__(self, root: Path, traced: bool) -> None:
        root.mkdir(parents=True)
        self.root = root
        self.artifacts = root / "artifacts"
        self._totals = root / "totals.json"
        self._stdout_path = root / "stdout.txt"
        self._stdout = open(self._stdout_path, "wb")
        self._stderr = open(root / "stderr.txt", "wb")
        launcher = Path(__file__).with_name("launcher.py")
        command = [sys.executable, "-u", str(launcher),
                   "--totals", str(self._totals)]
        if traced:
            command.append("--trace")
        command += ["--", "serve", "--host", "127.0.0.1", "--port", "0",
                    "--workers", "2", "--ledger-dir", str(root / "ledger"),
                    "--artifact-dir", str(self.artifacts)]
        self.process = subprocess.Popen(command, stdout=self._stdout,
                                        stderr=self._stderr,
                                        env=fixture.child_env())
        try:
            self.host, self.port = self._wait_listening()
        except BaseException:
            self.stop()
            raise

    def _wait_listening(self, timeout: float = 120.0) -> Tuple[str, int]:
        deadline = time.monotonic() + timeout
        while True:
            found = re.search(rb"listening on http://([0-9.]+):(\d+)",
                              self._stdout_path.read_bytes())
            if found:
                return found.group(1).decode(), int(found.group(2))
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with code {self.process.returncode}: "
                    f"{(self.root / 'stderr.txt').read_text()[-2000:]}")
            if time.monotonic() > deadline:
                raise RuntimeError("server did not start listening")
            time.sleep(0.005)

    def stop(self) -> Dict[str, Any]:
        """Drain the server (``SIGTERM``), wait for it, return its totals."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._stdout.close()
        self._stderr.close()
        if self._totals.exists():
            return json.loads(self._totals.read_text())
        return {}


class Connection:
    """One keep-alive HTTP/1.1 connection (reopened after an error)."""

    def __init__(self, host: str, port: int) -> None:
        self._address = (host, port)
        self._conn = http.client.HTTPConnection(host, port, timeout=120)

    def post(self, path: str, payload: Dict[str, Any],
             accept: Optional[str] = None) -> Tuple[int, bytes]:
        headers = {"Content-Type": "application/json"}
        if accept is not None:
            headers["Accept"] = accept
        try:
            self._conn.request("POST", path, json.dumps(payload).encode(),
                               headers)
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self._conn.close()
            self._conn = http.client.HTTPConnection(*self._address,
                                                    timeout=120)
            raise

    def close(self) -> None:
        self._conn.close()


def _sample_payload(spec: Dict[str, Any], seed: int) -> Dict[str, Any]:
    return {"spec": spec, "count": 1, "seed": seed}


def _probe(conn: Connection, spec: Dict[str, Any], seed: int) -> float:
    """Median latency of warm binary samples on one idle connection."""
    latencies = []
    for index in range(PROBE_REQUESTS):
        start = time.perf_counter()
        status, _body = conn.post("/sample",
                                  _sample_payload(spec, seed + index),
                                  CONTENT_TYPE_BINARY)
        latencies.append(time.perf_counter() - start)
        if status != 200:
            raise RuntimeError(f"probe sample answered {status}")
    return statistics.median(latencies)


def _set_up(root: Path, traced: bool, spec: Dict[str, Any],
            sample_seed: int) -> Tuple[Server, Connection]:
    """Start a server, then one warm fit and one warm sample."""
    server = Server(root, traced)
    conn = Connection(server.host, server.port)
    for path, payload, accept in (
            ("/fit", spec, None),
            ("/sample", _sample_payload(spec, sample_seed),
             CONTENT_TYPE_BINARY)):
        status, body = conn.post(path, payload, accept)
        if status != 200:
            conn.close()
            server.stop()
            raise RuntimeError(
                f"set-up {path} answered {status}: {body[:300]!r}")
    return server, conn


def _drive(conn: Connection, claim, deadline: float, spec: Dict[str, Any],
           seed: int, records: List[dict]) -> None:
    """One closed-loop client: next request only after the last answered."""
    while time.perf_counter() < deadline:
        index = claim()
        record: Dict[str, Any] = {"index": index}
        if index % FIT_EVERY == FIT_EVERY - 1:
            record["kind"] = "fit"
            record["seed"] = seed + 1 + index
            path, accept = "/fit", None
            payload = dict(spec, seed=record["seed"])
        else:
            record["kind"] = "sample"
            record["seed"] = seed + 100_000 + index
            path = "/sample"
            payload = _sample_payload(spec, record["seed"])
            accept = CONTENT_TYPE_BINARY
        start = time.perf_counter()
        try:
            status, body = conn.post(path, payload, accept)
        except (OSError, http.client.HTTPException) as exc:
            status, body = 0, repr(exc).encode()
        record["latency"] = time.perf_counter() - start
        record["status"] = status
        record["problem"] = _reply_problem(record["kind"], status, body)
        if record["problem"] is None and (
                record["kind"] == "fit" or index % DECODE_EVERY == 0):
            record["body"] = body
        records.append(record)


def _reply_problem(kind: str, status: int, body: bytes) -> Optional[str]:
    """What is wrong with one reply, checked inline (cheap checks only)."""
    if status != 200:
        return f"{kind} answered {status}: {body[:200]!r}"
    if kind == "sample":
        return None if body.startswith(MAGIC) else "sample reply is not binary"
    try:
        reply = json.loads(body)
        spent = sum(reply["accountant"]["spends"].values())
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return f"fit reply is malformed: {exc!r}"
    if reply["cache_hit"] or not math.isclose(spent, EPSILON, rel_tol=1e-9):
        return f"cold fit: cache_hit={reply['cache_hit']} spent={spent}"
    return None


def _percentile_with_tail(values: List[float], q: float) -> Tuple[float, int]:
    """The q-quantile (nearest rank) and how many values lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _check_graph(graph: Any, parameters: Any) -> Optional[str]:
    us, vs = graph.edge_arrays()
    if graph.num_nodes != parameters.num_nodes:
        return f"served graph has {graph.num_nodes} nodes"
    if graph.num_attributes != parameters.num_attributes:
        return f"served graph has attribute width {graph.num_attributes}"
    if (us == vs).any() or graph.num_edges == 0:
        return "served graph has a self-loop or no edges"
    return None


def _identical(left: Any, right: Any) -> bool:
    left_us, left_vs = left.edge_arrays()
    right_us, right_vs = right.edge_arrays()
    return (left.num_nodes == right.num_nodes
            and left_us.shape == right_us.shape
            and (left_us == right_us).all() and (left_vs == right_vs).all()
            and (left.attributes == right.attributes).all())


def run_serve(seed: int, seconds: float, traced: bool, scale: float
              ) -> Dict[str, Any]:
    from repro.api import ReleaseSession, ReleaseSpec
    from repro.graphs import codec

    # The warm spec is a fixed reference release: a sample's cost depends on
    # the noise its fit drew (the acceptance vector), which must not vary
    # with the workload seed.  The seed moves sample and cold-fit seeds.
    base = seed * 1009
    spec = {"spec_version": 1, "dataset": "lastfm", "scale": scale,
            "seed": REFERENCE_FIT_SEED, "epsilon": EPSILON, "backend": "fcl"}

    work = fixture.CACHE_DIR / f"serve-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    servers: List[Server] = []
    report: Dict[str, Any] = {}
    try:
        setup_times = []
        for repeat in range(SETUP_REPEATS):
            last = repeat == SETUP_REPEATS - 1
            start = time.perf_counter()
            server, conn = _set_up(work / f"server{repeat}", traced and last,
                                   spec, base + 50_000)
            setup_times.append(time.perf_counter() - start)
            servers.append(server)
            if not last:
                if traced and repeat == 0:
                    report["untraced_probe_s"] = _probe(conn, spec,
                                                        base + 60_000)
                conn.close()
                server.stop()

        records: List[dict] = []
        per_client: List[List[dict]] = [[] for _ in range(CONNECTIONS)]
        counter = itertools.count()
        lock = threading.Lock()

        def claim() -> int:
            with lock:
                return next(counter)

        conns = [conn] + [Connection(server.host, server.port)
                          for _ in range(CONNECTIONS - 1)]
        begin = time.perf_counter()
        threads = [threading.Thread(target=_drive, args=(
            client, claim, begin + seconds, spec, base, per_client[slot]))
            for slot, client in enumerate(conns)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - begin
        for client_records in per_client:
            records += client_records
        if traced:
            report["traced_probe_s"] = _probe(conn, spec, base + 60_000)
        for client in conns:
            client.close()
        totals = server.stop()

        # Checks, outside the timed loop, against the artifact the server
        # sampled from, read back from its store (a disk hit: no fit, no ε).
        failures = [r["problem"] for r in records if r["problem"]]
        reader = ReleaseSession(artifact_store=server.artifacts)
        artifact = reader.fit(ReleaseSpec.from_dict(spec))
        if reader.stats()["disk_hits"] != 1:
            failures.append("the served artifact is not in the server's store")
        samples = sorted((r for r in records if r["kind"] == "sample"),
                         key=lambda r: r["index"])
        fits = [r for r in records if r["kind"] == "fit"]
        decoded = []
        for record in samples:
            if "body" in record:
                graph = codec.decode_response(record.pop("body"))["graphs"][0]
                problem = _check_graph(graph, artifact.parameters)
                if problem:
                    failures.append(problem)
                decoded.append((record["seed"], graph))
        probe_seed, served = decoded[0]
        if not _identical(served, artifact.sample(count=1, seed=probe_seed)[0]):
            failures.append(f"served graph at seed {probe_seed} differs from "
                            f"ModelArtifact.sample")
    finally:
        for server in servers:
            server.stop()
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(records) + 1

    sample_latencies = [r["latency"] for r in samples if not r["problem"]]
    fit_latencies = [r["latency"] for r in fits if not r["problem"]]
    completed = sum(1 for r in records if r["status"] == 200)
    p99, beyond = _percentile_with_tail(sample_latencies, 0.99)
    metrics = {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "fit_s": {"value": statistics.median(fit_latencies), "unit": "s"},
        "sample_s": {"value": statistics.median(sample_latencies), "unit": "s"},
        "peak_rss_mb": {"value": totals["peak_rss_mb"], "unit": "MiB"},
        "failed_frac": {"value": len(failures) / attempted, "unit": "ratio"},
        "serve_rps": {"value": completed / elapsed, "unit": "req/s"},
        "serve_sample_p50_ms": {
            "value": 1000 * statistics.median(sample_latencies), "unit": "ms"},
        "serve_fit_p50_ms": {"value": 1000 * statistics.median(fit_latencies),
                             "unit": "ms"},
    }
    if beyond >= 10:
        metrics["serve_sample_p99_ms"] = {"value": 1000 * p99, "unit": "ms",
                                          "beyond": beyond}
    report.update({
        "input": {"dataset": "lastfm", "scale": scale,
                  "seed": REFERENCE_FIT_SEED,
                  "num_nodes": artifact.parameters.num_nodes},
        "requests": len(records),
        "samples": len(samples),
        "fits": len(fits),
        "decoded": len(decoded),
        "timed_s": elapsed,
        "sample_latency_count": len(sample_latencies),
        "failures": failures[:20],
        "metrics": metrics,
    })
    outcome = {
        "end_to_end": {name: entry["value"] for name, entry in metrics.items()},
        "attempted": attempted,
        "failed": len(failures),
        "report": report,
        "layers": None,
    }
    if traced:
        layers = spans.per_layer(totals["layers"])
        layers["service.outside_s"] = (
            statistics.mean(r["latency"] for r in records)
            - layers["service.execute_s"])
        report["tracing_overhead"] = {
            "untraced_probe_s": report.pop("untraced_probe_s"),
            "traced_probe_s": report.pop("traced_probe_s"),
        }
        overhead = report["tracing_overhead"]
        overhead["overhead_s"] = (overhead["traced_probe_s"]
                                  - overhead["untraced_probe_s"])
        overhead["overhead_frac"] = (overhead["overhead_s"]
                                     / overhead["untraced_probe_s"])
        outcome["layers"] = layers
    return outcome
