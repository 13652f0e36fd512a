"""Query caching for deterministic black-box classifiers.

One-pixel attacks resubmit identical images surprisingly often: the
sketch's push-back semantics re-check pairs, synthesis evaluates related
programs on the same training images, and restarts replay whole prefixes.
For a *deterministic* classifier those repeats are pure waste, so a
bounded LRU cache keyed on the image bytes can serve them locally.

Threat-model note (this distinction is pinned by tests and matters for
paper fidelity): the paper's query count measures *submissions to the
oracle*.  Where the cache sits relative to the
:class:`~repro.classifier.blackbox.CountingClassifier` boundary decides
what the count means:

- ``CachedClassifier(CountingClassifier(model))`` -- the cache is on the
  attacker's side of the boundary.  A hit is served without touching the
  counting classifier, so ``count`` does **not** increment.  This models
  an attacker smart enough never to pay twice for the same submission;
  it changes the reported query counts relative to a cache-less run.
- ``CountingClassifier(CachedClassifier(model))`` -- the cache is behind
  the boundary.  Every submission is counted (paper-faithful numbers,
  bit-identical to a cache-less run) and the cache only saves wall-clock
  time on the repeated forward passes.
- ``NetworkClassifier(model, cache=QueryCache(...))`` -- the classifier's
  own cache, behind every boundary that wraps it.  The model zoo hands
  out its classifiers with one (:meth:`repro.models.zoo.ModelZoo.get`),
  so every chain, attack and experiment that scores through the same
  zoo classifier reuses its scalar answers with no caller change; every
  other ``NetworkClassifier`` has none.

The execution engine's attack integration uses the second arrangement so
parallel, cached runs reproduce the paper's sequential numbers exactly.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, Iterable, List, Mapping, Optional

import numpy as np

Classifier = Callable[[np.ndarray], np.ndarray]

DEFAULT_CACHE_SIZE = 4096

#: Seconds a :class:`TieredQueryCache` skips its remote tier after a
#: transport error before probing it again.  Keeps a dead L2 cheap (one
#: failed round trip per cooldown window, not per query) while letting a
#: restarted cache service be picked up again without any coordination.
DEFAULT_L2_COOLDOWN = 1.0


def normalized_cache_size(cache_size: Optional[int]) -> Optional[int]:
    """Map a user-facing cache size to a :class:`QueryCache` capacity.

    ``None`` and ``0`` both mean "no cache" (flags like ``--cache-size 0``
    are the documented way to disable caching, and must not crash on the
    cache constructor's positive-size requirement); negative sizes are
    rejected here at the configuration boundary with a clear message.
    """
    if cache_size is None or cache_size == 0:
        return None
    if cache_size < 0:
        raise ValueError(f"cache size must be non-negative, got {cache_size}")
    return int(cache_size)


def _digest_prefix(shape, dtype):
    """A SHA-1 state that has hashed ``shape`` and ``dtype``."""
    hasher = hashlib.sha1()
    hasher.update(str(shape).encode())
    hasher.update(str(dtype).encode())
    return hasher


#: Memoized prefixes: formatting ``str(dtype)`` cost most of a digest.
#: Callers copy the returned state and never update it in place.
_cached_digest_prefix = functools.lru_cache(maxsize=256)(_digest_prefix)


def image_digest(image: np.ndarray) -> bytes:
    """A collision-resistant key for an image: shape, dtype and bytes.

    The digest is SHA-1 over ``str(shape)``, ``str(dtype)`` and the
    C-ordered bytes; golden traces and shared-cache keys depend on
    these exact bytes.
    """
    array = np.ascontiguousarray(image)
    if array.dtype.fields is None:
        hasher = _cached_digest_prefix(array.shape, array.dtype).copy()
    else:
        # equal structured dtypes can print differently (aligned or not)
        hasher = _digest_prefix(array.shape, array.dtype)
    hasher.update(array)  # the contiguous buffer itself, no tobytes() copy
    return hasher.digest()


class QueryCache:
    """A bounded LRU mapping image digests to score vectors.

    Eviction is least-recently-*used*: both hits and inserts refresh an
    entry's recency.  Stored scores are copied on the way in and out so
    callers can never corrupt the cache by mutating a returned array.

    Every operation takes an internal lock, so a cache shared between
    threads (the serving broker's flusher plus synchronous ``evaluate``
    callers, or thread-pool session drivers) cannot corrupt the
    ``OrderedDict`` or lose counter increments.  The lock covers single
    operations only: callers needing a compound ``get``-then-``put`` to
    be atomic (e.g. the broker's within-batch dedup) still hold their
    own lock around the sequence.

    A pickled or deep-copied cache comes back empty with the same bound:
    entries belong to the process that scored them, and a worker process
    that receives a cached classifier fills its own.
    """

    def __init__(self, maxsize: int = DEFAULT_CACHE_SIZE):
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self._entries: "OrderedDict[bytes, np.ndarray]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: bytes) -> Optional[np.ndarray]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry.copy()

    def put(self, key: bytes, scores: np.ndarray) -> None:
        scores = np.array(scores, copy=True)
        with self._lock:
            self._entries[key] = scores
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1

    @property
    def hit_rate(self) -> float:
        with self._lock:
            hits, misses = self.hits, self.misses
        total = hits + misses
        if total == 0:
            return 0.0
        return hits / total

    def stats(self) -> Dict[str, float]:
        """JSON-safe counters for :class:`~repro.runtime.events.RunLog`."""
        with self._lock:
            hits, misses = self.hits, self.misses
            evictions, size = self.evictions, len(self._entries)
        total = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "evictions": evictions,
            "size": size,
            "maxsize": self.maxsize,
            "hit_rate": hits / total if total else 0.0,
        }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __reduce__(self):
        return (QueryCache, (self.maxsize,))


def encode_scores(scores: np.ndarray) -> Dict[str, object]:
    """A JSON-safe wire encoding of a score vector, bit-exact.

    Dtype, shape and raw bytes travel separately so the decoded array is
    byte-for-byte the encoded one -- the property the shared-cache
    differential oracle pins (a lossy float repr would make an L2 hit
    diverge from the forward pass it replaced in the last ulps).
    """
    array = np.ascontiguousarray(scores)
    return {
        "dtype": str(array.dtype),
        "shape": list(array.shape),
        "data": base64.b64encode(array.tobytes()).decode("ascii"),
    }


def decode_scores(payload: Mapping[str, object]) -> np.ndarray:
    """Invert :func:`encode_scores`; returns a fresh writable array."""
    raw = base64.b64decode(payload["data"])
    array = np.frombuffer(raw, dtype=np.dtype(payload["dtype"]))
    return array.reshape(tuple(payload["shape"])).copy()


class TieredQueryCache:
    """A two-tier query cache: in-process L1 LRU plus a shared remote L2.

    The L1 is an ordinary :class:`QueryCache`; the L2 is any client with

    - ``lookup(keys) -> {key: scores}`` -- one batched round trip that
      returns the subset of ``keys`` the remote tier holds, and
    - ``store(entries)`` -- one batched write-through round trip,

    both raising :class:`OSError` when the remote tier is unreachable.
    Cluster workers use the HTTP client from
    :mod:`repro.cluster.cacheservice`; tests substitute an in-process
    fake (:class:`repro.testkit.sharedcache.InMemorySharedCache`).

    The tier split is deliberate: :meth:`get`/:meth:`put` touch **L1
    only** (they are called under the broker's compound-lookup lock and
    must never pay a network round trip), while :meth:`fetch_remote` and
    :meth:`store_remote` are the explicit, batched L2 operations the
    broker runs outside its locks -- one lookup round trip per
    evaluation batch, one store round trip per model batch.  Remote hits
    are promoted into L1 so a session's re-queries never leave the
    process again.

    Fidelity: the cache sits *inside* the counting boundary exactly like
    a plain ``QueryCache`` -- an L1 hit, an L2 hit and a forward pass are
    all still counted queries, so per-session query counts are untouched
    no matter which tier answers (and the classifier is deterministic,
    so every tier answers with bit-identical scores).

    Degraded mode: any L2 transport error silently suspends the remote
    tier for ``cooldown`` seconds -- lookups return no hits and stores
    are dropped, so the cache degrades to exactly the private-L1
    behaviour.  Errors are counted, never raised.
    """

    def __init__(self, l1: QueryCache, l2, cooldown: float = DEFAULT_L2_COOLDOWN):
        if cooldown < 0:
            raise ValueError("cooldown must be non-negative")
        # serve.metrics is a dependency-free leaf module; importing its
        # Histogram here keeps the L2 round-trip distribution in the
        # same snapshot shape the cluster metrics plane already merges.
        from repro.serve.metrics import Histogram

        self.l1 = l1
        self.l2 = l2
        self.cooldown = cooldown
        self._lock = threading.Lock()
        self._suspended_until = 0.0
        self.l2_hits = 0
        self.l2_misses = 0
        self.l2_stores = 0
        self.l2_errors = 0
        self.rtt_ms = Histogram()

    # -- L1 surface (lock-cheap; safe under the broker's compound lock) --

    @property
    def maxsize(self) -> int:
        return self.l1.maxsize

    def __len__(self) -> int:
        return len(self.l1)

    def get(self, key: bytes) -> Optional[np.ndarray]:
        """L1 lookup only; the remote tier is batched via fetch_remote."""
        return self.l1.get(key)

    def put(self, key: bytes, scores: np.ndarray) -> None:
        """L1 insert only; write-through is batched via store_remote."""
        self.l1.put(key, scores)

    def clear(self) -> None:
        self.l1.clear()

    # -- L2 surface (batched; one round trip per call) -------------------

    def _available(self) -> bool:
        with self._lock:
            return time.monotonic() >= self._suspended_until

    def _suspend(self) -> None:
        with self._lock:
            self.l2_errors += 1
            self._suspended_until = time.monotonic() + self.cooldown

    def fetch_remote(self, keys: Iterable[bytes]) -> Dict[bytes, np.ndarray]:
        """One batched L2 lookup; hits are promoted into L1.

        Returns ``{key: scores}`` for the remote hits.  Unreachable or
        suspended L2 returns ``{}`` -- the caller proceeds exactly as if
        every key missed, which is the degraded-mode contract.
        """
        keys = list(keys)
        if not keys or not self._available():
            return {}
        started = time.monotonic()
        try:
            hits = self.l2.lookup(keys)
        except OSError:
            self._suspend()
            return {}
        elapsed_ms = (time.monotonic() - started) * 1000.0
        with self._lock:
            self.l2_hits += len(hits)
            self.l2_misses += len(keys) - len(hits)
            self.rtt_ms.observe(elapsed_ms)
        for key, scores in hits.items():
            self.l1.put(key, scores)
        return hits

    def store_remote(self, entries: Mapping[bytes, np.ndarray]) -> None:
        """One batched write-through of freshly scored entries."""
        if not entries or not self._available():
            return
        started = time.monotonic()
        try:
            self.l2.store(dict(entries))
        except OSError:
            self._suspend()
            return
        elapsed_ms = (time.monotonic() - started) * 1000.0
        with self._lock:
            self.l2_stores += len(entries)
            self.rtt_ms.observe(elapsed_ms)

    # -- observability ---------------------------------------------------

    @property
    def degraded(self) -> bool:
        """True while the remote tier is suspended after an error."""
        return not self._available()

    @property
    def hit_rate(self) -> float:
        return self.l1.hit_rate

    def stats(self) -> Dict[str, object]:
        """L1 counters at the top level (shape-compatible with
        :meth:`QueryCache.stats`, so existing rollups keep working) plus
        an ``l2`` sub-document with the shared-tier accounting."""
        snapshot = self.l1.stats()
        with self._lock:
            l2_total = self.l2_hits + self.l2_misses
            snapshot["tiered"] = True
            snapshot["l2"] = {
                "hits": self.l2_hits,
                "misses": self.l2_misses,
                "stores": self.l2_stores,
                "errors": self.l2_errors,
                "hit_rate": self.l2_hits / l2_total if l2_total else 0.0,
                "rtt_ms": self.rtt_ms.snapshot(),
                "degraded": time.monotonic() < self._suspended_until,
            }
        return snapshot


class CachedClassifier:
    """Serve repeated queries of a deterministic classifier from a cache.

    Wraps *any* classifier callable.  See the module docstring for where
    to place it relative to ``CountingClassifier`` -- outside the
    boundary to deduplicate paid submissions (hits do not increment the
    count), inside to speed up forward passes without touching the
    paper-faithful accounting.

    The wrapped classifier must be deterministic; caching a stochastic
    classifier silently freezes its answers.
    """

    def __init__(
        self,
        classifier: Classifier,
        cache: Optional[QueryCache] = None,
        maxsize: int = DEFAULT_CACHE_SIZE,
    ):
        self._classifier = classifier
        self.cache = cache if cache is not None else QueryCache(maxsize)

    def __call__(self, image: np.ndarray) -> np.ndarray:
        key = image_digest(image)
        scores = self.cache.get(key)
        if scores is not None:
            return scores
        scores = self._classifier(image)
        self.cache.put(key, scores)
        return scores

    def batch(self, images) -> np.ndarray:
        """Score many images, serving hits from the cache.

        The canonical batched entry point
        (:func:`~repro.classifier.blackbox.batch_scores`) dispatches here
        when a cached classifier is queried with a batch: each image is
        looked up individually, the distinct misses go to the wrapped
        classifier as one batch, and results come back in input order.
        Repeats *within* one batch are scored once but counted as misses
        (the lookups all happen before the model call), so hit/miss
        statistics can differ slightly from a sequential replay; returned
        scores do not.
        """
        from repro.classifier.blackbox import batch_scores

        if not isinstance(images, np.ndarray):
            images = list(images)
        if len(images) == 0:
            return batch_scores(self._classifier, images)
        keys = [image_digest(np.asarray(image)) for image in images]
        scores: List[Optional[np.ndarray]] = [self.cache.get(key) for key in keys]
        first_seen: Dict[bytes, int] = {}
        miss_images = []
        for position, key in enumerate(keys):
            if scores[position] is None and key not in first_seen:
                first_seen[key] = len(miss_images)
                miss_images.append(images[position])
        if miss_images:
            fresh = np.asarray(batch_scores(self._classifier, miss_images))
            for key, slot in first_seen.items():
                self.cache.put(key, fresh[slot])
            for position, key in enumerate(keys):
                if scores[position] is None:
                    scores[position] = np.array(fresh[first_seen[key]], copy=True)
        return np.stack(scores)

    @property
    def hit_rate(self) -> float:
        return self.cache.hit_rate

    def stats(self) -> Dict[str, float]:
        return self.cache.stats()
