"""The micro-batching query broker.

Attack sessions are pure query streams: each one repeatedly asks "score
this image" and blocks until the answer arrives.  Served naively, every
such query is a one-image forward pass -- the dominant cost at scale,
since :meth:`~repro.classifier.blackbox.NetworkClassifier.batch` prices
a whole batch close to a single image.  The broker closes that gap by
coalescing pending queries from concurrent sessions into few, large
batched evaluations.

Batch formation follows the classic micro-batching policy: a flush
happens as soon as ``max_batch_size`` queries are pending, or when the
oldest pending query has waited ``max_wait`` seconds, whichever comes
first.  ``max_wait`` bounds the latency a lone session can be charged
for the crowd's benefit; ``max_batch_size`` bounds the model's memory.

Two access modes share one evaluation core, :meth:`evaluate` (score a
ready-made list of images in one pass):

- :meth:`submit` -- thread-safe blocking call used by concurrently
  driven sessions; a background flusher thread applies the batch policy.
- :meth:`submit_many` -- one session's speculative batch, evaluated
  whole on the caller's thread.

Both modes run every miss through a shared
:class:`~repro.runtime.cache.QueryCache` sitting *in front of* the model
(inside each session's counting boundary -- sessions count their own
submissions, so a cache hit still costs the attacker a query and
reported counts stay paper-faithful), and deduplicate identical images
within a batch so the model scores each distinct image once.  Across
concurrent calls, a single-flight table extends that guarantee: a miss
another call is already scoring is *joined* (the second caller waits for
the first's result) instead of re-scored, so each distinct image costs
at most one forward pass no matter how calls interleave.

When the cache is a :class:`~repro.runtime.cache.TieredQueryCache`, the
broker also consults the shared L2 tier -- one batched round trip per
evaluation covering every owned miss -- and writes freshly scored
entries through after the forward pass.  L2 hits are promoted into L1
and resolved exactly like local hits (still counted queries); an
unreachable L2 silently degrades to the private-cache behaviour.

The model itself is treated as one exclusive resource (a single lock
serializes forward passes): classifiers built on :mod:`repro.nn` are not
thread-safe, and a real deployment's accelerator is serialized anyway.
Batching, not concurrent model entry, is where throughput comes from.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.classifier.blackbox import batch_scores
from repro.runtime.cache import QueryCache, image_digest
from repro.runtime.events import RunLog, ensure_log
from repro.serve.metrics import BrokerMetrics

Classifier = Callable[[np.ndarray], np.ndarray]

#: Idle wakeup period of the flusher thread (seconds): the upper bound on
#: how stale a ``stop()`` request can go unnoticed, not a batching knob.
_IDLE_TICK = 0.05


class BrokerStopped(RuntimeError):
    """Raised by :meth:`MicroBatchBroker.submit` after :meth:`stop`."""


@dataclass(frozen=True)
class BatchPolicy:
    """When the broker closes a batch.

    ``max_batch_size`` flushes on size; ``max_wait`` (seconds) flushes on
    the age of the oldest pending query.  ``max_batch_size=1`` degrades
    the broker to per-query dispatch -- the baseline the serving
    benchmark measures against.
    """

    max_batch_size: int = 32
    max_wait: float = 0.002

    def __post_init__(self):
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be at least 1")
        if self.max_wait < 0:
            raise ValueError("max_wait must be non-negative")


class _PendingQuery:
    """One in-flight ``submit`` awaiting its batch."""

    __slots__ = ("image", "enqueued_at", "ready", "scores", "error")

    def __init__(self, image: np.ndarray):
        self.image = image
        self.enqueued_at = time.monotonic()
        self.ready = threading.Event()
        self.scores: Optional[np.ndarray] = None
        self.error: Optional[BaseException] = None


class _InFlight:
    """A miss one :meth:`MicroBatchBroker.evaluate` call is resolving.

    Other concurrent calls that miss on the same key *join* this flight
    and wait on ``ready`` instead of scoring the image again.  The owner
    always resolves the flight -- with scores on success, with the
    evaluation's exception on failure -- so joiners can never hang.
    """

    __slots__ = ("ready", "scores", "error")

    def __init__(self):
        self.ready = threading.Event()
        self.scores: Optional[np.ndarray] = None
        self.error: Optional[BaseException] = None


class MicroBatchBroker:
    """Coalesce concurrent classifier queries into batched evaluations.

    Parameters
    ----------
    classifier:
        The model to serve: any ``(H, W, 3) -> (C,)`` callable.  A native
        ``batch`` method is used when present; otherwise the broker falls
        back to per-image calls under the model lock (still amortizing
        cache lookups and lock traffic, and guaranteeing bit-identical
        scores to sequential queries).
    policy:
        The :class:`BatchPolicy`; defaults to batches of 32 with a 2 ms
        wait bound.
    cache:
        A shared :class:`~repro.runtime.cache.QueryCache`; pass ``None``
        to disable caching, or an integer-sized cache built by the
        caller to share across brokers.  A
        :class:`~repro.runtime.cache.TieredQueryCache` additionally
        enables the shared L2 tier (batched consult on miss,
        write-through after scoring).
    run_log:
        Optional telemetry sink; every flush emits a ``broker_flush``
        event and :meth:`stop` emits a ``broker_summary``.
    """

    def __init__(
        self,
        classifier: Classifier,
        policy: Optional[BatchPolicy] = None,
        cache: Optional[QueryCache] = None,
        run_log: Optional[RunLog] = None,
    ):
        self.classifier = classifier
        self.policy = policy if policy is not None else BatchPolicy()
        self.cache = cache
        self.run_log = ensure_log(run_log)
        self.metrics = BrokerMetrics()
        # The QueryCache locks each get/put internally; this lock covers
        # the broker's *compound* lookup-and-dedup phase and the
        # single-flight table.  The lock alone is not enough to prevent
        # double-scoring: the miss decision and the cache.put are
        # separate critical sections with the (unlocked) model call in
        # between, so two concurrent evaluate() calls could both miss on
        # the same key.  The _in_flight table closes that window -- the
        # first call to miss on a key claims it under this lock; later
        # callers find the claim and wait for its result instead of
        # scoring the image again.
        self._cache_lock = threading.Lock()
        self._in_flight: Dict[bytes, _InFlight] = {}
        # A TieredQueryCache exposes batched remote-tier operations; a
        # plain QueryCache (or None) keeps the broker purely local.
        self._l2_capable = cache is not None and hasattr(cache, "fetch_remote")
        # Forward passes are serialized: repro.nn models are not
        # thread-safe, and a frozen model's plans share one scratch
        # pool that assumes one forward pass in flight at a time.
        self._model_lock = threading.Lock()
        self._cond = threading.Condition(threading.Lock())
        self._pending: List[_PendingQuery] = []
        #: Deepest the pending queue has ever been; the load signal
        #: overload shedding watches (serve --shed-queue-depth).
        self._queue_high_water = 0
        self._flusher: Optional[threading.Thread] = None
        self._running = False

    # ------------------------------------------------------------------
    # synchronous core
    # ------------------------------------------------------------------

    def evaluate(self, images: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Score ``images`` in one coalesced evaluation.

        Cache hits are served from memory, identical images are scored
        once, and the remaining unique misses go to the model as a
        single batch.  Returns one float64 score vector per input, in
        input order.

        The evaluation runs in phases so no network or model work ever
        happens under ``_cache_lock``:

        1. **Claim** (under the lock): probe L1 per position, dedup
           misses within the call, and for each distinct miss either
           *claim* it in the single-flight table or *join* a flight
           another call already owns.
        2. **L2 consult** (lock-free): one batched remote lookup
           covering every owned miss; hits are promoted into L1.
        3. **Model** (model lock only): one forward batch for the
           still-unresolved owned misses, then L1 insert and one
           batched L2 write-through.
        4. **Settle and wait**: resolve every owned flight (scores or
           error -- always, so joiners never hang), then block on the
           joined flights.  Owned work completes before any waiting, so
           two calls joining each other's keys cannot deadlock.
        """
        images = list(images)
        if not images:
            return []
        keys = [image_digest(image) for image in images]
        scores: List[Optional[np.ndarray]] = [None] * len(images)
        owned: Dict[bytes, _InFlight] = {}
        owned_images: Dict[bytes, np.ndarray] = {}
        joined: Dict[bytes, _InFlight] = {}
        miss_occurrences = 0
        with self._cache_lock:
            for position, key in enumerate(keys):
                if self.cache is not None:
                    hit = self.cache.get(key)
                    if hit is not None:
                        scores[position] = np.asarray(hit, dtype=np.float64)
                        continue
                miss_occurrences += 1
                if key in owned or key in joined:
                    continue
                flight = self._in_flight.get(key)
                if flight is not None:
                    joined[key] = flight
                    continue
                flight = _InFlight()
                self._in_flight[key] = flight
                owned[key] = flight
                owned_images[key] = images[position]
        duplicates = miss_occurrences - len(owned) - len(joined)

        l2_found: Dict[bytes, np.ndarray] = {}
        if owned and self._l2_capable:
            l2_found = self.cache.fetch_remote(list(owned))

        to_score = [key for key in owned if key not in l2_found]
        fresh_by_key: Dict[bytes, np.ndarray] = {}
        error: Optional[BaseException] = None
        if to_score:
            try:
                with self._model_lock:
                    fresh = np.asarray(
                        batch_scores(
                            self.classifier,
                            [owned_images[key] for key in to_score],
                        ),
                        dtype=np.float64,
                    )
            except BaseException as exc:
                error = exc
            else:
                with self._cache_lock:
                    if self.cache is not None:
                        for key, row in zip(to_score, fresh):
                            self.cache.put(key, row)
                fresh_by_key = dict(zip(to_score, fresh))
                if self._l2_capable:
                    self.cache.store_remote(fresh_by_key)

        settled: Dict[bytes, np.ndarray] = {}
        with self._cache_lock:
            for key in owned:
                self._in_flight.pop(key, None)
        for key, flight in owned.items():
            if key in l2_found:
                flight.scores = np.asarray(l2_found[key], dtype=np.float64)
            elif key in fresh_by_key:
                flight.scores = np.asarray(fresh_by_key[key], dtype=np.float64)
            else:
                flight.error = (
                    error
                    if error is not None
                    else RuntimeError("single-flight miss left unresolved")
                )
            if flight.scores is not None:
                settled[key] = flight.scores
            flight.ready.set()
        if error is not None:
            raise error

        for key, flight in joined.items():
            flight.ready.wait()
            if flight.error is not None:
                raise flight.error
            settled[key] = flight.scores

        for position, key in enumerate(keys):
            if scores[position] is None:
                scores[position] = np.array(settled[key], copy=True)
        self.metrics.record_flush(
            batch=len(images),
            model_batch=len(to_score),
            duplicates=duplicates,
            l2_hits=len(l2_found),
            single_flight_waits=len(joined),
        )
        self.run_log.emit(
            "broker_flush",
            batch=len(images),
            model_batch=len(to_score),
            duplicates=duplicates,
            cached=len(images) - miss_occurrences,
            l2_hits=len(l2_found),
            waited=len(joined),
        )
        return scores

    # ------------------------------------------------------------------
    # threaded service
    # ------------------------------------------------------------------

    def start(self) -> "MicroBatchBroker":
        """Start the background flusher; idempotent."""
        with self._cond:
            if self._running:
                return self
            self._running = True
        self._flusher = threading.Thread(
            target=self._flush_loop, name="broker-flusher", daemon=True
        )
        self._flusher.start()
        return self

    def stop(self) -> None:
        """Stop the flusher and fail any still-pending submits."""
        with self._cond:
            if not self._running:
                return
            self._running = False
            leftovers = list(self._pending)
            self._pending.clear()
            self._cond.notify_all()
        for query in leftovers:
            query.error = BrokerStopped("broker stopped with queries pending")
            query.ready.set()
        if self._flusher is not None:
            self._flusher.join(timeout=5.0)
            self._flusher = None
        self.run_log.emit("broker_summary", **self.stats())

    def __enter__(self) -> "MicroBatchBroker":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def submit(self, image: np.ndarray) -> np.ndarray:
        """Score one image, blocking until its batch is evaluated.

        Thread-safe; meant to be called from session-driving threads.
        Cache hits are resolved at flush time through the same
        :meth:`evaluate` core, so hit/miss statistics count each logical
        query exactly once.
        """
        with self._cond:
            if not self._running:
                self.metrics.record_rejected()
                raise BrokerStopped("submit on a broker that is not running")
            query = _PendingQuery(image)
            self._pending.append(query)
            if len(self._pending) > self._queue_high_water:
                self._queue_high_water = len(self._pending)
            # wake the flusher when the batch fills, and on the first
            # query of a batch so its max_wait timer starts immediately
            # (instead of whenever the idle tick next expires)
            if (
                len(self._pending) == 1
                or len(self._pending) >= self.policy.max_batch_size
            ):
                self._cond.notify_all()
        self.metrics.record_submit()
        query.ready.wait()
        if query.error is not None:
            raise query.error
        return query.scores

    def submit_many(self, images: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Score one session's ready-made query batch in a single flush.

        The batch-native stepping path: a yielded
        :class:`~repro.core.stepping.QueryBatch` arrives here whole, so
        it bypasses the micro-batching queue (the caller already built a
        model-sized batch) and goes straight through :meth:`evaluate`,
        which still gives it the shared cache, intra-batch dedup, and
        flush accounting.  Each member is recorded as one submitted
        logical query.  Thread-safe; serialized against concurrent
        flushes by the model lock inside :meth:`evaluate`.
        """
        images = list(images)
        if not images:
            return []
        with self._cond:
            if not self._running:
                self.metrics.record_rejected()
                raise BrokerStopped("submit_many on a broker that is not running")
        for _ in images:
            self.metrics.record_submit()
        return self.evaluate(images)

    @property
    def queue_depth(self) -> int:
        with self._cond:
            return len(self._pending)

    def _flush_loop(self) -> None:
        while True:
            batch = self._next_batch()
            if batch is None:
                return
            self._flush(batch)

    def _next_batch(self) -> Optional[List[_PendingQuery]]:
        """Block until the policy closes a batch; ``None`` on shutdown."""
        with self._cond:
            while True:
                if not self._running:
                    return None
                if not self._pending:
                    self._cond.wait(_IDLE_TICK)
                    continue
                if len(self._pending) >= self.policy.max_batch_size:
                    break
                age = time.monotonic() - self._pending[0].enqueued_at
                remaining = self.policy.max_wait - age
                if remaining <= 0:
                    break
                self._cond.wait(min(remaining, _IDLE_TICK))
            size = min(len(self._pending), self.policy.max_batch_size)
            batch = self._pending[:size]
            del self._pending[:size]
            return batch

    def _flush(self, batch: List[_PendingQuery]) -> None:
        try:
            scores = self.evaluate([query.image for query in batch])
        except BaseException as exc:  # propagate to every waiter
            for query in batch:
                query.error = exc
                query.ready.set()
            return
        for query, row in zip(batch, scores):
            query.scores = row
            query.ready.set()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def stats(self) -> Dict:
        """JSON-safe snapshot for ``/metrics`` and run summaries."""
        snapshot = self.metrics.snapshot()
        snapshot["queue_depth"] = self.queue_depth
        with self._cond:
            snapshot["queue_high_water"] = self._queue_high_water
        snapshot["policy"] = {
            "max_batch_size": self.policy.max_batch_size,
            "max_wait": self.policy.max_wait,
        }
        snapshot["cache"] = self.cache.stats() if self.cache is not None else None
        return snapshot
