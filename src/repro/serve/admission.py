"""Admission control and per-client rate limiting.

A serving deployment has to refuse work it cannot absorb: an unbounded
session backlog turns overload into unbounded memory growth and
timeouts for everyone.  The server therefore gates submissions twice --

- :class:`AdmissionControl` caps the number of sessions that may be
  queued or running at once (global backpressure; excess submissions
  get HTTP 429 with ``Retry-After``);
- :class:`RateLimiter` applies a per-client token bucket so one noisy
  client cannot starve the rest even below the global cap;
- :class:`OverloadPolicy` sheds *early*: when broker queue depth or the
  active-session count crosses a high-water mark the server answers 503
  with ``Retry-After`` instead of letting admitted work queue into
  latency collapse (the classic load-shedding pattern: refuse at the
  door while the house is still standing).

All are deliberately tiny, stdlib-only, and injectable with a fake
clock for tests.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional


class AdmissionControl:
    """A bounded concurrency gate over live sessions."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._active = 0
        self.admitted = 0
        self.refused = 0

    def try_acquire(self) -> bool:
        """Claim a slot; ``False`` means the caller must shed the work."""
        with self._lock:
            if self._active >= self.capacity:
                self.refused += 1
                return False
            self._active += 1
            self.admitted += 1
            return True

    def release(self) -> None:
        with self._lock:
            if self._active > 0:
                self._active -= 1

    @property
    def active(self) -> int:
        with self._lock:
            return self._active

    def stats(self) -> Dict:
        with self._lock:
            return {
                "capacity": self.capacity,
                "active": self._active,
                "admitted": self.admitted,
                "refused": self.refused,
            }


class OverloadPolicy:
    """High-water-mark shedding over broker queue depth and live sessions.

    Distinct from :class:`AdmissionControl`: admission is a hard cap on
    sessions (429 -- the client did something over quota), while
    shedding is a *load* signal (503 -- the service is temporarily
    saturated, retry after a bounded pause).  Either watermark may be
    ``None`` to disable that axis.
    """

    def __init__(
        self,
        max_queue_depth: Optional[int] = None,
        max_active: Optional[int] = None,
        retry_after: float = 1.0,
    ):
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError("max_queue_depth must be at least 1 (or None)")
        if max_active is not None and max_active < 1:
            raise ValueError("max_active must be at least 1 (or None)")
        if retry_after <= 0:
            raise ValueError("retry_after must be positive")
        self.max_queue_depth = max_queue_depth
        self.max_active = max_active
        self.retry_after = retry_after
        self._lock = threading.Lock()
        self.shed = 0

    def should_shed(self, queue_depth: int, active: int) -> Optional[str]:
        """The shed reason when a watermark is crossed, else ``None``.

        Counts every shed so ``/metrics`` can expose the totals.
        """
        reason = None
        if (
            self.max_queue_depth is not None
            and queue_depth >= self.max_queue_depth
        ):
            reason = (
                f"broker queue depth {queue_depth} >= {self.max_queue_depth}"
            )
        elif self.max_active is not None and active >= self.max_active:
            reason = f"active sessions {active} >= {self.max_active}"
        if reason is not None:
            with self._lock:
                self.shed += 1
        return reason

    def stats(self) -> Dict:
        with self._lock:
            return {
                "max_queue_depth": self.max_queue_depth,
                "max_active": self.max_active,
                "retry_after": self.retry_after,
                "shed": self.shed,
            }


class TokenBucket:
    """The standard leaky-bucket-as-meter: refill at ``rate``, cap at ``burst``."""

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.validate(rate, burst)
        self.rate = rate
        self.burst = burst
        self._clock = clock
        self._tokens = burst
        self._updated = clock()

    @staticmethod
    def validate(rate: float, burst: float) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        if burst < 1:
            raise ValueError("burst must allow at least one request")

    def allow(self) -> bool:
        now = self._clock()
        self._tokens = min(self.burst, self._tokens + (now - self._updated) * self.rate)
        self._updated = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


class RateLimiter:
    """Per-client token buckets, created on first sight.

    ``max_clients`` bounds the bucket table so an attacker cycling
    client identities cannot grow it without limit; when full, the
    stalest bucket (least recently consulted) is evicted.
    """

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
        max_clients: int = 4096,
    ):
        # Checked here, not at each client's first submit, where a bad
        # rate would turn every POST /attacks into a 500.
        TokenBucket.validate(rate, burst)
        if max_clients < 1:
            raise ValueError("max_clients must be at least 1")
        self.rate = rate
        self.burst = burst
        self._clock = clock
        self._lock = threading.Lock()
        self._buckets: "Dict[str, TokenBucket]" = {}
        self._last_seen: "Dict[str, float]" = {}
        self._max_clients = max_clients
        self.allowed = 0
        self.limited = 0

    def allow(self, client: str) -> bool:
        with self._lock:
            bucket = self._buckets.get(client)
            if bucket is None:
                if len(self._buckets) >= self._max_clients:
                    stalest = min(self._last_seen, key=self._last_seen.get)
                    self._buckets.pop(stalest, None)
                    self._last_seen.pop(stalest, None)
                bucket = TokenBucket(self.rate, self.burst, clock=self._clock)
                self._buckets[client] = bucket
            self._last_seen[client] = self._clock()
            verdict = bucket.allow()
            if verdict:
                self.allowed += 1
            else:
                self.limited += 1
            return verdict

    def stats(self) -> Dict:
        with self._lock:
            return {
                "rate": self.rate,
                "burst": self.burst,
                "clients": len(self._buckets),
                "allowed": self.allowed,
                "limited": self.limited,
            }
