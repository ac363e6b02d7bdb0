"""The synthesis service: a stdlib-only HTTP daemon over :mod:`repro.api`.

``python -m repro serve`` starts a :class:`ReleaseServer` — a threading HTTP
server whose compute runs on a bounded worker pool and whose fitted models
live in a shared :class:`~repro.api.session.ReleaseSession` cache keyed by
spec hash.  The serving contract mirrors the paper's post-processing
invariance: the first request for a spec pays the fit (and its ε); every
subsequent ``/sample`` against the same spec hash is pure post-processing —
no fit, no additional privacy spend, and bit-identical at a given seed to a
direct :meth:`ReleaseSession.sample` call.

Endpoints (all JSON):

* ``GET /healthz`` — liveness plus cache counters, queue depth and whether
  the server is draining;
* ``POST /fit`` — body: a :class:`~repro.api.spec.ReleaseSpec` document (or
  ``{"spec": {...}}``); returns the artifact id, the accountant ledger and
  whether the cache served it;
* ``POST /sample`` — body: ``{"spec": {...}}`` or
  ``{"artifact_id": "..."}`` plus optional ``count`` and ``seed``; fits
  through the cache when needed, then returns sampled graphs as
  :func:`~repro.graphs.io.graph_to_payload` documents;
* ``GET /artifacts`` / ``GET /artifacts/<id>`` — cache inventory and
  per-artifact metadata (ledger included, parameter arrays omitted);
* ``GET /ledgers`` — per-tenant persistent ε-ledger summaries (empty
  without a configured ledger directory).

**Failure contract.**  Every error response is structured and machine
readable — ``{"error": {"code", "message", "retryable", ...}}`` (see
:mod:`repro.service.errors` for the code table) — and each ``POST`` runs a
guard stack, cheapest rejection first:

1. *draining*: a server in graceful shutdown answers 503 ``draining``;
2. *body cap*: bodies beyond ``REPRO_MAX_BODY_BYTES`` (default 32 MiB) get
   413 before being buffered;
3. *rate limit*: a per-tenant token bucket answers 429 ``over_rate`` with
   ``Retry-After``;
4. *admission queue*: a bounded count of in-flight jobs answers 429
   ``overloaded`` with a ``Retry-After`` estimated from recent job
   durations;
5. *budget admission*: a private fit whose tenant ledger cannot cover its ε
   is rejected 403 ``over_budget`` before any work;
6. *deadline*: each admitted request gets ``REPRO_REQUEST_TIMEOUT`` seconds
   of wall clock, enforced cooperatively at pipeline stage boundaries and
   by a hard wait bound on the worker future (504 ``deadline_exceeded``).

``SIGTERM`` triggers :meth:`ReleaseServer.drain`: stop admitting, finish
in-flight work, flush (compact) the tenant ledgers, then exit.

The cache key is the spec's fit fingerprint, which records file-based
inputs by path: do not mutate an ``edges``/``attributes`` file under a
running service — write new data to a new path (or restart) so a stale
artifact is never served as a cache hit.
"""

from __future__ import annotations

import json
import logging
import math
import os
import queue as queue_module
import signal
import socket
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import (
    Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple, Union,
)

from repro.api.artifact import ArtifactError, ModelArtifact
from repro.api.session import ReleaseSession
from repro.api.spec import ReleaseSpec, SpecValidationError
from repro.graphs import codec
from repro.graphs.attributed import AttributedGraph
from repro.graphs.codec import CONTENT_TYPE_BINARY, CONTENT_TYPE_JSON
from repro.graphs.io import graph_to_payload
from repro.privacy.budget import BudgetExceededError
from repro.privacy.ledger import DEFAULT_TENANT, LedgerStore
from repro.service import errors
from repro.service.admission import AdmissionQueue, Deadline, TenantRateLimiter
from repro.service.errors import ServiceError
from repro.testing.faults import fire
from repro.utils.memory import MemoryBudgetError
from repro.utils.validation import positive_from_env

logger = logging.getLogger("repro.service")

#: Default bind address of ``python -m repro serve``.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8008

#: Default size of the compute worker pool.
DEFAULT_WORKERS = 4

#: Default per-request cap on ``/sample``'s ``count`` (bounds response size
#: and how long one request can hold a pool worker).
DEFAULT_MAX_SAMPLE_COUNT = 100

#: Environment variable and default for the request-body size cap.
MAX_BODY_ENV_VAR = "REPRO_MAX_BODY_BYTES"
DEFAULT_MAX_BODY_BYTES = 32 * 1024 * 1024

#: Environment variable for the per-request deadline (seconds; unset = none).
REQUEST_TIMEOUT_ENV_VAR = "REPRO_REQUEST_TIMEOUT"

#: Extra wall-clock grace beyond the deadline before the handler gives up
#: waiting on the worker future (covers checkpoint granularity).
DEADLINE_GRACE = 1.0


def negotiate_codec(accept: Optional[str]) -> str:
    """Pick the response codec from an ``Accept`` header value.

    Returns ``"binary"`` when the header names
    ``application/x-repro-npy`` (possibly among alternatives — the binary
    codec wins whenever the client can take it), ``"json"`` for an absent /
    wildcard / JSON-compatible header, and raises 406 ``not_acceptable``
    when the client can accept neither.
    """
    if not accept or not accept.strip():
        return "json"
    offered = []
    for item in accept.split(","):
        media = item.split(";", 1)[0].strip().lower()
        if media:
            offered.append(media)
    if CONTENT_TYPE_BINARY in offered:
        return "binary"
    for media in offered:
        if media in ("*/*", "application/*", CONTENT_TYPE_JSON):
            return "json"
    raise errors.not_acceptable(
        f"no supported codec in Accept: {accept!r}; this server produces "
        f"{CONTENT_TYPE_JSON} and {CONTENT_TYPE_BINARY}"
    )


class _ReusePortHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server that binds with ``SO_REUSEPORT``.

    Multi-process scale-out: every worker process binds the same address
    and the kernel load-balances incoming connections across them.
    """

    def server_bind(self) -> None:
        if not hasattr(socket, "SO_REUSEPORT"):  # pragma: no cover
            raise OSError("SO_REUSEPORT is not available on this platform")
        self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        ThreadingHTTPServer.server_bind(self)


def _spec_from_payload(payload: Any, *, source: str) -> ReleaseSpec:
    """Accept either a bare spec document or a ``{"spec": {...}}`` wrapper."""
    if isinstance(payload, Mapping) and isinstance(payload.get("spec"), Mapping):
        return ReleaseSpec.from_dict(payload["spec"], source=source)
    return ReleaseSpec.from_dict(payload, source=source)


def _as_service_error(exc: BaseException) -> ServiceError:
    """Map library exceptions onto the structured error vocabulary."""
    if isinstance(exc, ServiceError):
        return exc
    if isinstance(exc, SpecValidationError):
        return errors.invalid_request(str(exc), field=exc.field)
    if isinstance(exc, ArtifactError):
        return errors.invalid_request(str(exc))
    if isinstance(exc, KeyError):
        message = str(exc.args[0]) if exc.args else str(exc)
        return errors.not_found(message)
    if isinstance(exc, BudgetExceededError):
        return errors.over_budget(str(exc))
    if isinstance(exc, MemoryBudgetError):
        return errors.over_memory(str(exc))
    logger.exception("unhandled service error", exc_info=exc)
    return errors.internal(f"{type(exc).__name__}: {exc}")


class ReleaseServer:
    """The HTTP daemon: threading server + worker pool + artifact cache.

    Parameters
    ----------
    host / port:
        Bind address (``port=0`` picks a free port — handy for tests).
    workers:
        Size of the compute pool.  Connection handling is one thread per
        request (:class:`ThreadingHTTPServer`); fit and sample *work* is
        funnelled through this bounded pool so a burst of requests cannot
        oversubscribe the CPU.
    session:
        Optionally share an existing :class:`ReleaseSession` (and its
        artifact cache); a fresh one is created when omitted.
    max_sample_count:
        Per-request cap on ``/sample``'s ``count`` (larger requests get a
        400 telling the client to page).
    request_timeout:
        Per-request deadline in seconds (``None``: read
        ``REPRO_REQUEST_TIMEOUT``; unset there too means no deadline).
    max_body_bytes:
        Request-body size cap (``None``: ``REPRO_MAX_BODY_BYTES`` or
        32 MiB).  Either variable set to anything but a positive number
        (an integer for the cap) raises :class:`ValueError`, and so does a
        timeout that is not a finite positive number or a cap below 1.
    queue_depth:
        Bound on admitted-but-unfinished jobs (default ``workers * 4``);
        beyond it new work is rejected 429 ``overloaded``.
    rate_limit / rate_burst:
        Per-tenant token-bucket rate (requests/second) and burst capacity
        (default burst: ``max(2 * rate_limit, 1)``).  ``rate_limit=None``
        disables rate limiting.
    ledger_dir / ledger_store / tenant_budget:
        Persistence for the ε accountant: either an existing
        :class:`~repro.privacy.ledger.LedgerStore` or a directory to create
        one in, with ``tenant_budget`` as the default per-tenant ε cap.
        Without either, fits are accounted in memory only (the pre-ledger
        behaviour).
    artifact_dir:
        Optional directory for a persistent on-disk
        :class:`~repro.api.store.ArtifactStore`: fitted models are saved
        there and cache misses probe it before refitting, so restarts — and
        the N worker processes of ``serve --processes`` — share one fit per
        spec.  Ignored when an explicit ``session`` is supplied (wire the
        store into that session instead).
    shared_ledgers:
        Open the tenant ledgers in multi-process shared mode (flock +
        WAL-tail refresh, no open-time pending rollback).  Worker processes
        of the supervisor set this; single-process servers keep the
        default.
    reuse_port:
        Bind with ``SO_REUSEPORT`` so sibling worker processes can share
        the port (kernel connection load-balancing).
    """

    def __init__(self, host: str = DEFAULT_HOST, port: int = DEFAULT_PORT,
                 workers: int = DEFAULT_WORKERS,
                 session: Optional[ReleaseSession] = None,
                 max_sample_count: int = DEFAULT_MAX_SAMPLE_COUNT,
                 request_timeout: Optional[float] = None,
                 max_body_bytes: Optional[int] = None,
                 queue_depth: Optional[int] = None,
                 rate_limit: Optional[float] = None,
                 rate_burst: Optional[float] = None,
                 ledger_dir: Optional[Union[str, os.PathLike]] = None,
                 ledger_store: Optional[LedgerStore] = None,
                 tenant_budget: Optional[float] = None,
                 artifact_dir: Optional[Union[str, os.PathLike]] = None,
                 shared_ledgers: bool = False,
                 reuse_port: bool = False) -> None:
        # Environment values are read first, so a bad one raises before
        # any store, pool or socket exists.
        if request_timeout is None:
            request_timeout = positive_from_env(REQUEST_TIMEOUT_ENV_VAR, None,
                                                float)
        if max_body_bytes is None:
            max_body_bytes = positive_from_env(MAX_BODY_ENV_VAR,
                                               DEFAULT_MAX_BODY_BYTES)
        if request_timeout is not None and not 0 < request_timeout < math.inf:
            raise ValueError(f"request_timeout must be a finite positive "
                             f"number of seconds, got {request_timeout!r}")
        if max_body_bytes < 1:
            raise ValueError(
                f"max_body_bytes must be >= 1, got {max_body_bytes}"
            )
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_sample_count < 1:
            raise ValueError(
                f"max_sample_count must be >= 1, got {max_sample_count}"
            )
        if ledger_store is not None and ledger_dir is not None:
            raise ValueError("give either 'ledger_dir' or 'ledger_store', "
                             "not both")
        if ledger_store is None and ledger_dir is not None:
            ledger_store = LedgerStore(
                ledger_dir, default_budget=tenant_budget,
                shared=shared_ledgers,
                recover_pending=not shared_ledgers,
            )
        self._ledger_store = ledger_store
        if session is None:
            session = ReleaseSession(ledger_store=ledger_store,
                                     artifact_store=artifact_dir)
        elif ledger_store is not None and session.ledger_store is None:
            session.attach_ledger_store(ledger_store)
        self.session = session
        self._max_sample_count = int(max_sample_count)
        self._workers = int(workers)
        self._request_timeout = request_timeout
        self._max_body_bytes = int(max_body_bytes)
        self._queue = AdmissionQueue(
            queue_depth if queue_depth is not None else self._workers * 4
        )
        self._limiter = (
            TenantRateLimiter(
                rate_limit,
                rate_burst if rate_burst is not None
                else max(2.0 * rate_limit, 1.0),
            )
            if rate_limit is not None else None
        )
        self._draining = threading.Event()
        self._closed = False
        self._executor = ThreadPoolExecutor(
            max_workers=self._workers, thread_name_prefix="repro-service"
        )
        server_cls = _ReusePortHTTPServer if reuse_port else ThreadingHTTPServer
        self._httpd = server_cls((host, int(port)), _make_handler(self))
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None
        # Whether a serve loop was started: socketserver's shutdown() waits
        # for the loop to exit, so without one it would wait forever.
        self._served = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The actual bound ``(host, port)``."""
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        """Base URL of the running server."""
        host, port = self.address
        return f"http://{host}:{port}"

    @property
    def ledger_store(self) -> Optional[LedgerStore]:
        """The persistent ε-ledger store, when configured."""
        return self._ledger_store

    @property
    def draining(self) -> bool:
        """Whether graceful shutdown has begun (new work is rejected)."""
        return self._draining.is_set()

    def start(self) -> "ReleaseServer":
        """Serve in a background thread; returns ``self`` for chaining."""
        if self._thread is not None:
            raise RuntimeError("server is already running")
        self._served = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-service-acceptor",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted."""
        self._served = True
        self._httpd.serve_forever()

    def drain(self, timeout: float = 30.0) -> None:
        """Graceful shutdown: stop admitting, finish in-flight, flush ledgers.

        New ``POST`` work is rejected 503 ``draining`` immediately; jobs
        already admitted run to completion (bounded by ``timeout``).  The
        tenant ledgers are compacted — every record is already fsync'd, so
        this is tidiness, not durability — before the listener closes.
        """
        if self._draining.is_set():
            return
        logger.info("drain: rejecting new work, finishing in-flight jobs")
        self._draining.set()
        deadline = time.monotonic() + max(0.0, timeout)
        while self._queue.in_flight > 0 and time.monotonic() < deadline:
            time.sleep(0.02)
        self._executor.shutdown(wait=True)
        if self._ledger_store is not None:
            try:
                self._ledger_store.compact()
            except Exception:  # pragma: no cover - defensive
                logger.exception("drain: ledger compaction failed")
        self.close()
        logger.info("drain: complete")

    def close(self) -> None:
        """Stop serving and release the port, the pool and the ledgers."""
        if self._closed:
            return
        self._closed = True
        if self._served:
            self._httpd.shutdown()
        self._httpd.server_close()
        self._executor.shutdown(wait=False)
        if self._ledger_store is not None:
            self._ledger_store.close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "ReleaseServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # The guarded request path
    # ------------------------------------------------------------------
    def execute(self, kind: str, payload: Any) -> Any:
        """Run one admitted request end to end (the ``POST`` body).

        Applies the guard stack documented in the module docstring, then
        executes the job on the worker pool under its deadline.  Raises
        :class:`ServiceError` (or an exception :func:`_as_service_error`
        maps) on any failure.  Exposed publicly so benchmarks can measure
        the guard stack's overhead without HTTP in the way.

        ``kind`` is ``"fit"`` or ``"sample"`` (JSON result documents), or
        ``"sample_raw"`` — the binary codec's buffered path, returning
        ``(meta, graphs)`` with live :class:`AttributedGraph` objects so the
        handler can encode them columnar without a JSON detour.
        """
        job = {"fit": self.fit_job, "sample": self.sample_job,
               "sample_raw": self._sample_raw}[kind]
        with self._admitted(kind, payload) as (tenant, deadline):
            return self._run_bounded(job, payload, deadline, tenant)

    @contextmanager
    def _admitted(self, kind: str, payload: Any
                  ) -> Iterator[Tuple[str, Deadline]]:
        """The guard stack: admit one request and yield ``(tenant, deadline)``.

        Checks, in order, draining, the tenant's token bucket, the admission
        queue and the budget pre-check, raising the matching
        :class:`ServiceError`.  The request holds its admission slot until
        the ``with`` block exits, so a streamed request keeps it until its
        generator finishes.
        """
        fire("server.request.start")
        if self._draining.is_set():
            raise errors.draining()
        tenant = self._resolve_tenant(payload)
        if self._limiter is not None:
            wait = self._limiter.try_acquire(tenant)
            if wait is not None:
                raise errors.over_rate(
                    f"tenant {tenant!r} is over its request rate", wait
                )
        if not self._queue.try_acquire():
            raise errors.overloaded(
                f"admission queue is full ({self._queue.depth} in flight)",
                self._queue.retry_after(),
            )
        started = time.monotonic()
        try:
            deadline = Deadline(self._request_timeout)
            self._admit_budget(kind, payload, tenant)
            yield tenant, deadline
        finally:
            self._queue.release(time.monotonic() - started)

    def _run_bounded(self, job: Callable[..., Any], payload: Any,
                     deadline: Deadline, tenant: str) -> Any:
        """Run ``job`` on the worker pool and wait at most the deadline."""
        fire("server.job.submit")
        future = self._executor.submit(job, payload, deadline, tenant)
        wait = (None if deadline.remaining is None
                else deadline.remaining + DEADLINE_GRACE)
        try:
            return future.result(timeout=wait)
        except FutureTimeoutError:
            # The worker missed every cooperative checkpoint inside the
            # grace window; it will still die at its next one, but this
            # request's wall clock is spent.
            raise errors.deadline_exceeded(
                f"request exceeded its {self._request_timeout:.3g}s "
                f"deadline"
            ) from None

    @staticmethod
    def _resolve_tenant(payload: Any) -> str:
        """The accounting identity of a request (spec field or default)."""
        tenant = None
        if isinstance(payload, Mapping):
            tenant = payload.get("tenant")
            if tenant is None and isinstance(payload.get("spec"), Mapping):
                tenant = payload["spec"].get("tenant")
        if tenant is None:
            return DEFAULT_TENANT
        if not isinstance(tenant, str) or not tenant:
            raise errors.invalid_request(
                f"tenant: expected a non-empty string, got {tenant!r}",
                field="tenant",
            )
        return tenant

    def _admit_budget(self, kind: str, payload: Any, tenant: str) -> None:
        """Reject an over-budget private fit *before* any work happens.

        Advisory (the authoritative check is the ledger reserve inside the
        fit); a cached artifact needs no budget, so cache hits always pass.
        """
        if self._ledger_store is None:
            return
        spec = self._parse_spec(kind, payload)
        if spec is None or spec.epsilon is None:
            return
        try:
            self.session.get_artifact(spec.spec_hash)
            return  # cache hit: sampling is free post-processing
        except KeyError:
            pass
        self._ledger_store.ledger(tenant).check(spec.epsilon)

    def _parse_spec(self, kind: str, payload: Any) -> Optional[ReleaseSpec]:
        """The request's spec, if it carries one (validation errors raise)."""
        if kind == "fit":
            return _spec_from_payload(payload, source="POST /fit body")
        if isinstance(payload, Mapping) and "artifact_id" not in payload \
                and isinstance(payload.get("spec"), Mapping):
            return ReleaseSpec.from_dict(payload["spec"],
                                         source="POST /sample body 'spec'")
        return None

    def health(self) -> Dict[str, Any]:
        import repro

        health: Dict[str, Any] = {
            "status": "draining" if self.draining else "ok",
            "pid": os.getpid(),
            "workers": self._workers,
            "version": repro.__version__,
            "in_flight": self._queue.in_flight,
            "queue_depth": self._queue.depth,
            "draining": self.draining,
            **self.session.stats(),
        }
        if self._request_timeout is not None:
            health["request_timeout"] = self._request_timeout
        return health

    def ledgers(self) -> Dict[str, Any]:
        """Per-tenant ε-ledger summaries (``GET /ledgers``)."""
        if self._ledger_store is None:
            return {"ledgers": {}, "persistent": False}
        return {"ledgers": self._ledger_store.as_dict(), "persistent": True}

    # ------------------------------------------------------------------
    # Jobs (run on the worker pool, under the request's deadline)
    # ------------------------------------------------------------------
    def fit_job(self, payload: Any, deadline: Optional[Deadline] = None,
                tenant: Optional[str] = None) -> Dict[str, Any]:
        spec = _spec_from_payload(payload, source="POST /fit body")
        spec = self._bill_to(spec, tenant)
        artifact, cache_hit = self.session.fit_cached(
            spec, checkpoint=deadline.checkpoint if deadline else None
        )
        return {
            "artifact_id": artifact.artifact_id,
            "spec_hash": artifact.spec_hash,
            "cache_hit": cache_hit,
            "backend": artifact.backend,
            "epsilon": artifact.epsilon,
            "accountant": artifact.accountant,
        }

    def _resolve_sample(self, payload: Any,
                        deadline: Optional[Deadline] = None,
                        tenant: Optional[str] = None
                        ) -> Tuple[Dict[str, Any], ModelArtifact, int,
                                   Optional[int]]:
        """Validate a ``/sample`` body and resolve its artifact.

        Everything that can fail with a request-level error happens here —
        before the streaming path has put a single byte on the wire.
        Returns ``(meta, artifact, count, seed, memory_budget_mb)`` where
        ``meta`` is the response envelope minus ``"graphs"`` and the budget
        (the spec's ``memory_budget_mb``, ``None`` for ``artifact_id``
        requests) bounds each sample's generation working set.
        """
        if not isinstance(payload, Mapping):
            raise SpecValidationError(
                "spec", "POST /sample body must be a JSON object"
            )
        count = payload.get("count", 1)
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            raise SpecValidationError(
                "count", f"expected a positive integer, got {count!r}"
            )
        if count > self._max_sample_count:
            raise SpecValidationError(
                "count",
                f"at most {self._max_sample_count} samples per request "
                f"(got {count}); page with multiple requests and distinct "
                f"seeds",
            )
        seed = payload.get("seed")
        if seed is not None and (not isinstance(seed, int)
                                 or isinstance(seed, bool) or seed < 0):
            raise SpecValidationError(
                "seed", f"expected a non-negative integer seed, got {seed!r}"
            )
        memory_budget_mb = None
        if "artifact_id" in payload:
            artifact = self.session.get_artifact(str(payload["artifact_id"]))
            cache_hit = True
        elif isinstance(payload.get("spec"), Mapping):
            # The spec must arrive wrapped: /sample's own control fields
            # (count, seed) live beside it, not inside it — a bare spec here
            # would make the request's sample seed ambiguous with the spec's
            # fit seed.
            spec = ReleaseSpec.from_dict(payload["spec"],
                                         source="POST /sample body 'spec'")
            spec = self._bill_to(spec, tenant)
            artifact, cache_hit = self.session.fit_cached(
                spec, checkpoint=deadline.checkpoint if deadline else None
            )
            memory_budget_mb = spec.memory_budget_mb
        else:
            raise SpecValidationError(
                "spec",
                "POST /sample needs a 'spec' object or a cached 'artifact_id'",
            )
        meta = {
            "artifact_id": artifact.artifact_id,
            "spec_hash": artifact.spec_hash,
            "cache_hit": cache_hit,
            "count": count,
            "seed": seed,
            "accountant": artifact.accountant,
        }
        return meta, artifact, count, seed, memory_budget_mb

    def _sample_raw(self, payload: Any, deadline: Optional[Deadline] = None,
                    tenant: Optional[str] = None
                    ) -> Tuple[Dict[str, Any], List[AttributedGraph]]:
        """Resolve and sample, returning live graphs (no JSON conversion)."""
        meta, artifact, count, seed, memory_budget_mb = self._resolve_sample(
            payload, deadline, tenant
        )
        graphs = list(artifact.iter_samples(
            count, seed, memory_budget_mb=memory_budget_mb,
            checkpoint=deadline.checkpoint if deadline else None,
        ))
        return meta, graphs

    def sample_job(self, payload: Any, deadline: Optional[Deadline] = None,
                   tenant: Optional[str] = None) -> Dict[str, Any]:
        meta, graphs = self._sample_raw(payload, deadline, tenant)
        return {
            **meta,
            "graphs": [graph_to_payload(graph) for graph in graphs],
        }

    def execute_stream(self, payload: Any) -> Iterator[bytes]:
        """The streaming ``/sample`` path: yield binary body pieces.

        A generator so the guard stack and artifact resolution run on the
        *first* ``next()`` — any failure there raises a normal
        :class:`ServiceError` before the handler has committed a 200.  Once
        the first piece is out, the response status is on the wire, so a
        mid-generation failure travels in-band as a terminal ``E`` frame.

        Graphs are produced on the worker pool and handed to the writer
        through a small bounded queue: a slow client applies backpressure to
        the producer instead of buffering the whole response, and the
        cooperative deadline keeps its between-graph checkpoints.  Closing
        the generator (client disconnect) sets the ``abandoned`` flag the
        producer polls, so orphaned work stops within one queue timeout.
        """
        with self._admitted("sample", payload) as (tenant, deadline):
            meta, artifact, count, seed, memory_budget_mb = self._run_bounded(
                self._resolve_sample, payload, deadline, tenant
            )
            out: "queue_module.Queue[Tuple[str, Any]]" = \
                queue_module.Queue(maxsize=4)
            abandoned = threading.Event()

            def _put(item: Tuple[str, Any]) -> bool:
                while not abandoned.is_set():
                    try:
                        out.put(item, timeout=0.25)
                        return True
                    except queue_module.Full:
                        continue
                return False

            def _produce() -> None:
                try:
                    for graph in artifact.iter_samples(
                            count, seed, memory_budget_mb=memory_budget_mb,
                            checkpoint=deadline.checkpoint):
                        if not _put(("graph", graph)):
                            return
                    _put(("end", None))
                except BaseException as exc:  # noqa: BLE001 - goes in-band
                    _put(("error", exc))

            self._executor.submit(_produce)
            try:
                yield codec.MAGIC + codec.encode_frame(
                    codec.FRAME_META, codec.dumps_json(meta).encode("utf-8")
                )
                while True:
                    kind, item = out.get()
                    if kind == "graph":
                        yield codec.encode_frame(
                            codec.FRAME_GRAPH, codec.encode_graph_block(item)
                        )
                    elif kind == "end":
                        yield codec.encode_frame(codec.FRAME_END)
                        return
                    else:
                        error = _as_service_error(item)
                        yield codec.encode_error_frame(error.to_payload())
                        return
            finally:
                abandoned.set()

    @staticmethod
    def _bill_to(spec: ReleaseSpec, tenant: Optional[str]) -> ReleaseSpec:
        """Stamp the resolved tenant onto a spec that names none.

        ``tenant`` is excluded from the fit fingerprint, so this never
        changes which artifact is fitted or served — only which persistent
        ledger the fit's ε is charged to.
        """
        if tenant and spec.tenant is None and tenant != DEFAULT_TENANT:
            return spec.with_overrides(tenant=tenant)
        return spec


def _make_handler(server: ReleaseServer):
    """Build the request-handler class bound to ``server``."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Without TCP_NODELAY, Nagle + delayed ACK adds ~40ms to every
        # keep-alive response — an order of magnitude over a warm sample's
        # actual compute.
        disable_nagle_algorithm = True

        # ------------------------------------------------------------------
        def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
            logger.debug("%s - %s", self.address_string(), format % args)

        def _send(self, status: int, payload: Dict[str, Any],
                  headers: Optional[Mapping[str, str]] = None) -> None:
            # Strict encoder: numpy values are converted explicitly, anything
            # else raises instead of shipping as a stringified repr.
            body = codec.dumps_json(payload).encode("utf-8")
            self._send_bytes(status, body, CONTENT_TYPE_JSON, headers)

        def _send_bytes(self, status: int, body: bytes, content_type: str,
                        headers: Optional[Mapping[str, str]] = None) -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)

        def _send_error(self, exc: BaseException) -> None:
            error = _as_service_error(exc)
            headers = {}
            if error.retry_after is not None:
                headers["Retry-After"] = f"{error.retry_after:.3f}"
            self._send(error.http_status, error.to_payload(), headers)

        def _read_json(self) -> Any:
            length = int(self.headers.get("Content-Length") or 0)
            if length > server._max_body_bytes:
                raise errors.payload_too_large(
                    f"request body is {length} bytes; the cap is "
                    f"{server._max_body_bytes} (set {MAX_BODY_ENV_VAR} to "
                    f"change it)"
                )
            raw = self.rfile.read(length) if length else b""
            if not raw:
                raise errors.invalid_request(
                    "request body is empty; expected JSON"
                )
            try:
                return json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise errors.invalid_request(
                    f"request body is not valid JSON: {exc}"
                ) from None

        # ------------------------------------------------------------------
        def do_GET(self) -> None:  # noqa: N802 (stdlib handler API)
            from urllib.parse import urlsplit

            path = urlsplit(self.path).path.rstrip("/") or "/"
            try:
                if path == "/healthz":
                    self._send(200, server.health())
                elif path == "/ledgers":
                    self._send(200, server.ledgers())
                elif path == "/artifacts":
                    self._send(200, {"artifacts": server.session.artifacts()})
                elif path.startswith("/artifacts/"):
                    artifact_id = path[len("/artifacts/"):]
                    artifact = server.session.get_artifact(artifact_id)
                    self._send(200, artifact.describe())
                else:
                    raise errors.not_found(f"unknown path {path!r}")
            except Exception as exc:
                self._send_error(exc)

        def do_POST(self) -> None:  # noqa: N802 (stdlib handler API)
            from urllib.parse import urlsplit

            path = urlsplit(self.path).path.rstrip("/")
            try:
                if path not in ("/fit", "/sample"):
                    raise errors.not_found(f"unknown path {path!r}")
                payload = self._read_json()
                stream = bool(payload.get("stream", False)) \
                    if isinstance(payload, Mapping) else False
                # Codec negotiation applies to /sample, whose graphs are the
                # payload worth a columnar encoding; /fit results stay JSON.
                wire = (negotiate_codec(self.headers.get("Accept"))
                        if path == "/sample" else "json")
                if wire == "binary":
                    if stream:
                        self._stream_binary(payload)
                    else:
                        meta, graphs = server.execute("sample_raw", payload)
                        self._send_bytes(
                            200, codec.encode_response(meta, graphs),
                            CONTENT_TYPE_BINARY,
                        )
                    return
                if stream:
                    raise errors.invalid_request(
                        "streaming responses require the binary codec; send "
                        f"'Accept: {CONTENT_TYPE_BINARY}'", field="stream",
                    )
                result = server.execute(path.lstrip("/"), payload)
            except Exception as exc:
                self._send_error(exc)
            else:
                self._send(200, result)

        def _stream_binary(self, payload: Any) -> None:
            """Write a chunked binary ``/sample`` response, frame by frame.

            ``BaseHTTPRequestHandler`` does not chunk for us, so the
            transfer-encoding framing is written by hand.  The first
            ``next()`` runs the guard stack — failures there propagate to
            ``do_POST``'s error path as ordinary HTTP errors; later failures
            arrive in-band from the generator as a terminal ``E`` frame.
            """
            pieces = server.execute_stream(payload)
            try:
                first = next(pieces)
                self.send_response(200)
                self.send_header("Content-Type", CONTENT_TYPE_BINARY)
                self.send_header("Transfer-Encoding", "chunked")
                self.end_headers()
                try:
                    self._write_chunk(first)
                    for piece in pieces:
                        self._write_chunk(piece)
                    self.wfile.write(b"0\r\n\r\n")
                    self.wfile.flush()
                except (BrokenPipeError, ConnectionResetError):
                    # Client went away mid-stream; closing the generator
                    # (finally below) flags the producer to stop.
                    self.close_connection = True
            finally:
                pieces.close()

        def _write_chunk(self, piece: bytes) -> None:
            if piece:
                self.wfile.write(b"%x\r\n" % len(piece))
                self.wfile.write(piece)
                self.wfile.write(b"\r\n")

    return Handler


def main(host: str = DEFAULT_HOST, port: int = DEFAULT_PORT,
         workers: int = DEFAULT_WORKERS, processes: int = 1,
         **server_kwargs: Any) -> int:
    """Run the service on the calling thread (the ``repro serve`` body).

    Installs a ``SIGTERM`` handler that drains gracefully: stop accepting,
    finish in-flight requests, compact the tenant ledgers, exit.  With
    ``processes > 1`` the work is delegated to the fork supervisor
    (:mod:`repro.service.supervisor`): N worker processes share the port via
    ``SO_REUSEPORT`` and share artifacts/ledgers through the on-disk stores.
    """
    if processes is not None and int(processes) > 1:
        from repro.service import supervisor

        return supervisor.main(host=host, port=port, workers=workers,
                               processes=int(processes), **server_kwargs)
    server = ReleaseServer(host=host, port=port, workers=workers,
                           **server_kwargs)

    def _on_sigterm(_signum: int, _frame: Any) -> None:
        # drain() must not run on the serve_forever thread (shutdown would
        # deadlock waiting on itself), so hand it to a helper thread.
        threading.Thread(target=server.drain, name="repro-service-drain",
                         daemon=True).start()

    try:
        signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:  # pragma: no cover - non-main-thread embedding
        pass
    print(f"repro synthesis service listening on {server.url} "
          f"(workers={workers})")
    print("endpoints: GET /healthz  GET /ledgers  POST /fit  POST /sample  "
          "GET /artifacts[/<id>]")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.close()
    return 0
