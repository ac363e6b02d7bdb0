"""Admission control primitives: deadlines, queue bounds, rate limits.

Three small, independently testable mechanisms the server composes per
request, in rejection-cheapness order (cheapest first, so overload sheds
work before it costs anything):

1. :class:`TenantRateLimiter` — a token bucket per tenant.  Sustained
   request rate above ``rate`` per second drains the bucket and gets 429
   ``over_rate`` with a ``Retry-After`` telling the client exactly when a
   token will exist again.
2. :class:`AdmissionQueue` — a bounded count of admitted-but-unfinished
   jobs.  When full, new work gets 429 ``overloaded`` with a ``Retry-After``
   estimated from an EWMA of recent job durations, instead of queueing
   without bound behind a wedged pool.
3. :class:`Deadline` — per-request wall-clock budget
   (``REPRO_REQUEST_TIMEOUT``).  Its :meth:`~Deadline.checkpoint` is the
   cooperative-cancellation hook threaded through
   :meth:`~repro.core.pipeline.SynthesisPipeline.fit` stage boundaries, so
   an abandoned request releases its worker at the next boundary rather
   than holding it to completion.

All three take an injectable ``clock`` (``time.monotonic`` by default) so
tests exercise edge timing deterministically.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, Optional

from repro.service.errors import DeadlineExceededError

__all__ = ["AdmissionQueue", "Deadline", "TenantRateLimiter", "TokenBucket"]

Clock = Callable[[], float]


class Deadline:
    """A wall-clock budget for one request.

    ``seconds=None`` means no deadline: :meth:`checkpoint` never raises and
    :attr:`remaining` is ``None``.
    """

    __slots__ = ("_clock", "_expires_at", "seconds")

    def __init__(self, seconds: Optional[float], *,
                 clock: Clock = time.monotonic) -> None:
        if seconds is not None and seconds <= 0:
            raise ValueError(f"deadline must be positive, got {seconds}")
        self.seconds = seconds
        self._clock = clock
        self._expires_at = None if seconds is None else clock() + seconds

    @property
    def remaining(self) -> Optional[float]:
        """Seconds left (never negative), or ``None`` without a deadline."""
        if self._expires_at is None:
            return None
        return max(0.0, self._expires_at - self._clock())

    @property
    def expired(self) -> bool:
        return self._expires_at is not None and self._clock() >= self._expires_at

    def checkpoint(self) -> None:
        """Raise :class:`DeadlineExceededError` once the budget is spent.

        This is the callable handed to the pipeline as its stage-boundary
        ``checkpoint``; it is cheap enough to call anywhere.
        """
        if self.expired:
            raise DeadlineExceededError(
                f"request exceeded its {self.seconds:.3g}s deadline"
            )


class TokenBucket:
    """The classic token bucket: ``rate`` tokens/s, burst up to ``capacity``.

    :meth:`try_acquire` never blocks — it either takes a token or reports
    how long until one exists (the 429 response's ``Retry-After``).
    """

    __slots__ = ("_clock", "_lock", "_tokens", "_updated", "capacity", "rate")

    def __init__(self, rate: float, capacity: float, *,
                 clock: Clock = time.monotonic) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.rate = float(rate)
        self.capacity = float(capacity)
        self._clock = clock
        self._lock = threading.Lock()
        self._tokens = self.capacity
        self._updated = clock()

    def try_acquire(self) -> Optional[float]:
        """Take one token; ``None`` on success, else seconds until one exists."""
        with self._lock:
            now = self._clock()
            self._tokens = min(
                self.capacity, self._tokens + (now - self._updated) * self.rate
            )
            self._updated = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return None
            return (1.0 - self._tokens) / self.rate


class TenantRateLimiter:
    """One :class:`TokenBucket` per tenant, LRU-bounded.

    The bound (``max_tenants``) caps memory under tenant-id churn; evicting
    an idle tenant's bucket merely refills it on their next request, which
    errs in the tenant's favour.
    """

    def __init__(self, rate: float, burst: float, *,
                 max_tenants: int = 1024, clock: Clock = time.monotonic
                 ) -> None:
        self._rate = float(rate)
        self._burst = float(burst)
        self._clock = clock
        self._max_tenants = max(1, int(max_tenants))
        self._lock = threading.Lock()
        self._buckets: "OrderedDict[str, TokenBucket]" = OrderedDict()

    def try_acquire(self, tenant: str) -> Optional[float]:
        """Take a token for ``tenant``; ``None`` or seconds-until-token."""
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = TokenBucket(self._rate, self._burst, clock=self._clock)
                self._buckets[tenant] = bucket
            self._buckets.move_to_end(tenant)
            while len(self._buckets) > self._max_tenants:
                self._buckets.popitem(last=False)
        return bucket.try_acquire()


class AdmissionQueue:
    """A bounded count of admitted-but-unfinished jobs.

    ``try_acquire`` is non-blocking: a full queue is an immediate
    ``overloaded`` rejection, not a wait — the client's backoff *is* the
    queue.  :meth:`retry_after` estimates when a slot will free up from an
    exponentially weighted moving average of completed-job durations.
    """

    def __init__(self, depth: int, *, clock: Clock = time.monotonic) -> None:
        if depth < 1:
            raise ValueError(f"queue depth must be >= 1, got {depth}")
        self.depth = int(depth)
        self._clock = clock
        self._lock = threading.Lock()
        self._in_flight = 0
        self._ewma_duration = 1.0  # optimistic prior; converges quickly

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    def try_acquire(self) -> bool:
        """Claim a slot; ``False`` when the queue is at depth."""
        with self._lock:
            if self._in_flight >= self.depth:
                return False
            self._in_flight += 1
            return True

    def release(self, duration: Optional[float] = None) -> None:
        """Return a slot, folding the job's duration into the EWMA."""
        with self._lock:
            self._in_flight = max(0, self._in_flight - 1)
            if duration is not None and duration >= 0:
                self._ewma_duration += 0.2 * (float(duration)
                                              - self._ewma_duration)

    def retry_after(self) -> float:
        """Suggested client wait until a slot plausibly frees up."""
        with self._lock:
            # Half the typical job duration: slots free up continuously, so
            # the expected wait for the *next* release is below one EWMA.
            return max(0.05, round(0.5 * self._ewma_duration, 3))
