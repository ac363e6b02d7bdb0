"""Unit tests for the admission-control primitives, on an injected clock.

The HTTP-level tests (``test_hardening.py``) show that the server answers
429 and 504 at all; these pin the arithmetic behind those answers: when a
deadline expires, how many tokens a bucket holds and when the next one
exists, which tenant bucket is evicted, and the ``Retry-After`` the
admission queue suggests.
"""

import pytest

from repro.service.admission import (
    AdmissionQueue,
    Deadline,
    TenantRateLimiter,
    TokenBucket,
)
from repro.service.errors import DeadlineExceededError, ServiceError


class FakeClock:
    """A monotonic clock that moves only when a test advances it."""

    def __init__(self, now: float = 100.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestDeadline:
    def test_no_deadline_never_expires(self):
        clock = FakeClock()
        deadline = Deadline(None, clock=clock)
        clock.advance(1e9)
        assert deadline.remaining is None
        assert not deadline.expired
        deadline.checkpoint()

    def test_checkpoint_raises_once_the_budget_is_spent(self):
        clock = FakeClock()
        deadline = Deadline(2.0, clock=clock)
        clock.advance(1.5)
        deadline.checkpoint()
        clock.advance(0.5)  # expiry is inclusive: now == expires_at
        assert deadline.expired
        with pytest.raises(DeadlineExceededError, match="2s deadline") as info:
            deadline.checkpoint()
        assert info.value.http_status == 504

    def test_remaining_counts_down_and_never_goes_negative(self):
        clock = FakeClock()
        deadline = Deadline(2.0, clock=clock)
        assert deadline.remaining == 2.0
        clock.advance(1.5)
        assert deadline.remaining == pytest.approx(0.5)
        clock.advance(10.0)
        assert deadline.remaining == 0.0

    @pytest.mark.parametrize("seconds", [0, -1.5])
    def test_non_positive_budget_rejected(self, seconds):
        with pytest.raises(ValueError, match="deadline must be positive"):
            Deadline(seconds, clock=FakeClock())


class TestTokenBucket:
    def test_burst_then_exact_retry_after(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, capacity=3, clock=clock)
        assert [bucket.try_acquire() for _ in range(3)] == [None, None, None]
        assert bucket.try_acquire() == pytest.approx(0.5)  # 1 token at 2/s
        clock.advance(0.25)  # half a token has accrued
        assert bucket.try_acquire() == pytest.approx(0.25)
        clock.advance(0.25)
        assert bucket.try_acquire() is None

    def test_refill_is_capped_at_capacity(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, capacity=3, clock=clock)
        for _ in range(3):
            bucket.try_acquire()
        clock.advance(100.0)  # would be 200 tokens without the cap
        assert [bucket.try_acquire() for _ in range(3)] == [None, None, None]
        assert bucket.try_acquire() == pytest.approx(0.5)

    @pytest.mark.parametrize("rate, capacity, message", [
        (0.0, 3, "rate must be positive"),
        (1.0, 0.5, "capacity must be >= 1"),
    ])
    def test_invalid_rate_or_capacity_rejected(self, rate, capacity, message):
        with pytest.raises(ValueError, match=message):
            TokenBucket(rate, capacity, clock=FakeClock())


class TestTenantRateLimiter:
    def test_tenants_have_separate_buckets(self):
        limiter = TenantRateLimiter(rate=1.0, burst=1, clock=FakeClock())
        assert limiter.try_acquire("a") is None
        assert limiter.try_acquire("a") == pytest.approx(1.0)
        assert limiter.try_acquire("b") is None

    def test_least_recently_used_tenant_is_evicted_and_refilled(self):
        limiter = TenantRateLimiter(rate=1.0, burst=1, max_tenants=2,
                                    clock=FakeClock())
        assert limiter.try_acquire("a") is None
        assert limiter.try_acquire("b") is None
        assert limiter.try_acquire("c") is None  # evicts "a", the oldest
        # An evicted tenant starts over with a full bucket ...
        assert limiter.try_acquire("a") is None  # evicts "b"
        # ... while a tenant still held keeps its empty one.
        assert limiter.try_acquire("c") == pytest.approx(1.0)


class TestAdmissionQueue:
    def test_depth_bounds_the_jobs_in_flight(self):
        queue = AdmissionQueue(2, clock=FakeClock())
        assert queue.try_acquire()
        assert queue.try_acquire()
        assert not queue.try_acquire()
        assert queue.in_flight == 2
        queue.release()
        assert queue.in_flight == 1
        assert queue.try_acquire()

    def test_release_never_goes_below_zero(self):
        queue = AdmissionQueue(1, clock=FakeClock())
        queue.release()
        queue.release()
        assert queue.in_flight == 0
        assert queue.try_acquire()
        assert not queue.try_acquire()

    def test_retry_after_is_half_the_moving_average_duration(self):
        queue = AdmissionQueue(1, clock=FakeClock())
        assert queue.retry_after() == 0.5  # the 1 s prior
        queue.try_acquire()
        queue.release(duration=3.0)  # EWMA 1 + 0.2 * (3 - 1) = 1.4
        assert queue.retry_after() == 0.7
        queue.release(duration=-1.0)  # a negative duration is ignored
        queue.release()  # so is a missing one
        assert queue.retry_after() == 0.7

    def test_retry_after_has_a_floor(self):
        queue = AdmissionQueue(1, clock=FakeClock())
        for _ in range(40):
            queue.release(duration=0.0)
        assert queue.retry_after() == 0.05

    @pytest.mark.parametrize("depth", [0, -3])
    def test_invalid_depth_rejected(self, depth):
        with pytest.raises(ValueError, match="queue depth must be >= 1"):
            AdmissionQueue(depth, clock=FakeClock())


def test_deadline_error_is_a_retryable_service_error():
    clock = FakeClock()
    deadline = Deadline(1.0, clock=clock)
    clock.advance(1.0)
    with pytest.raises(ServiceError) as info:
        deadline.checkpoint()
    assert info.value.code == "deadline_exceeded"
    assert info.value.retryable
