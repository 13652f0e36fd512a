"""Tests for the query cache, its threat-model contract, and run logs."""

import hashlib
import threading

import numpy as np
import pytest

from repro.classifier.blackbox import CountingClassifier, _UNCHANGED
from repro.classifier.toy import LatencyClassifier, LinearPixelClassifier
from repro.runtime import (
    CachedClassifier,
    NullRunLog,
    QueryCache,
    RunLog,
    image_digest,
)
from repro.runtime.cache import normalized_cache_size


@pytest.fixture
def toy():
    return LinearPixelClassifier((4, 4, 3), num_classes=3, seed=0)


class TestImageDigest:
    def test_value_sensitivity(self):
        a = np.zeros((4, 4, 3))
        b = np.zeros((4, 4, 3))
        b[1, 2, 0] = 1e-9
        assert image_digest(a) == image_digest(np.zeros((4, 4, 3)))
        assert image_digest(a) != image_digest(b)

    def test_shape_and_dtype_sensitivity(self):
        flat = np.zeros(12)
        assert image_digest(np.zeros((2, 2, 3))) != image_digest(flat)
        assert image_digest(np.zeros(4, dtype=np.float32)) != image_digest(
            np.zeros(4, dtype=np.float64)
        )

    def test_non_contiguous_input(self):
        base = np.arange(48, dtype=np.float64).reshape(4, 4, 3)
        view = base[::2]  # non-contiguous stride
        assert image_digest(view) == image_digest(np.ascontiguousarray(view))

    def test_matches_the_original_formula(self):
        """Golden-trace digests and shared-L2 keys must not move: the
        memoized prefix and in-place buffer hashing give exactly the
        bytes of SHA-1 over str(shape), str(dtype) and tobytes()."""

        def reference(image):
            array = np.ascontiguousarray(image)
            hasher = hashlib.sha1()
            hasher.update(str(array.shape).encode())
            hasher.update(str(array.dtype).encode())
            hasher.update(array.tobytes())
            return hasher.digest()

        rng = np.random.default_rng(0)
        base = rng.random((8, 8, 3))
        images = [
            base,
            rng.random((16, 16, 3)),
            base.astype(np.float32),
            base.astype(">f8"),
            (base * 255).astype(np.uint8),
            base[::2, 1:],
            base.transpose(1, 0, 2),
            np.float64(0.5),
            np.zeros((0, 3)),
            np.zeros(3, dtype=[("a", "<f8")]),
            np.zeros(3, dtype=np.dtype([("a", "<f8")], align=True)),
        ]
        for _ in range(2):  # the second pass hits the memoized prefixes
            for image in images:
                assert image_digest(image) == reference(image)


class TestQueryCache:
    def test_lru_eviction(self):
        cache = QueryCache(maxsize=2)
        cache.put(b"a", np.array([1.0]))
        cache.put(b"b", np.array([2.0]))
        assert cache.get(b"a") is not None  # refreshes "a"
        cache.put(b"c", np.array([3.0]))  # evicts "b", the LRU entry
        assert cache.get(b"b") is None
        assert cache.get(b"a") is not None
        assert cache.get(b"c") is not None
        assert cache.evictions == 1
        assert len(cache) == 2

    def test_hit_and_miss_accounting(self):
        cache = QueryCache(maxsize=4)
        assert cache.get(b"x") is None
        cache.put(b"x", np.array([1.0]))
        assert cache.get(b"x") is not None
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_rate == pytest.approx(0.5)
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["maxsize"] == 4

    def test_returned_arrays_are_isolated(self):
        cache = QueryCache(maxsize=4)
        original = np.array([1.0, 2.0])
        cache.put(b"k", original)
        original[0] = 99.0  # caller mutates after insert
        first = cache.get(b"k")
        first[1] = -1.0  # caller mutates a returned hit
        second = cache.get(b"k")
        assert list(second) == [1.0, 2.0]

    def test_rejects_bad_maxsize(self):
        with pytest.raises(ValueError):
            QueryCache(maxsize=0)

    def test_concurrent_mixed_ops_stay_consistent(self):
        """8 threads hammering get/put/stats on a small key space: with
        the internal lock the counters stay exact (hits + misses equals
        total gets) and the LRU dict never exceeds maxsize.  Without it
        this dies with RuntimeError (dict mutated during iteration) or
        drifts the counters."""
        cache = QueryCache(maxsize=16)
        keys = [f"k{i}".encode() for i in range(48)]
        gets_per_thread = 2000
        errors = []

        def worker(seed: int):
            rng = np.random.default_rng(seed)
            try:
                for _ in range(gets_per_thread):
                    key = keys[rng.integers(len(keys))]
                    if cache.get(key) is None:
                        cache.put(key, np.array([float(seed)]))
                    if rng.integers(10) == 0:
                        cache.stats()
            except BaseException as exc:  # surfaced to the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(seed,)) for seed in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        assert cache.hits + cache.misses == 8 * gets_per_thread
        assert len(cache) <= 16
        stats = cache.stats()
        assert stats["hits"] == cache.hits and stats["misses"] == cache.misses


class TestNormalizedCacheSize:
    def test_none_and_zero_disable(self):
        assert normalized_cache_size(None) is None
        assert normalized_cache_size(0) is None

    def test_positive_passes_through_as_int(self):
        assert normalized_cache_size(64) == 64
        assert normalized_cache_size(np.int64(8)) == 8
        assert isinstance(normalized_cache_size(np.int64(8)), int)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            normalized_cache_size(-1)


class TestCachedClassifier:
    def test_scores_match_uncached(self, toy):
        cached = CachedClassifier(toy)
        rng = np.random.default_rng(0)
        for _ in range(5):
            image = rng.uniform(size=(4, 4, 3))
            assert np.array_equal(cached(image), toy(image))

    def test_repeat_queries_hit(self, toy):
        cached = CachedClassifier(toy)
        image = np.full((4, 4, 3), 0.25)
        cached(image)
        cached(image)
        cached(image)
        assert cached.cache.hits == 2
        assert cached.cache.misses == 1
        assert cached.hit_rate == pytest.approx(2 / 3)


class TestCachedClassifierBatch:
    def test_matches_sequential_scoring(self, toy):
        cached = CachedClassifier(toy)
        rng = np.random.default_rng(1)
        images = rng.uniform(size=(6, 4, 4, 3))
        batched = cached.batch(images)
        sequential = np.stack([toy(image) for image in images])
        assert np.array_equal(batched, sequential)

    def test_duplicates_within_batch_scored_once(self, toy):
        counting = CountingClassifier(toy)
        cached = CachedClassifier(counting)
        image = np.full((4, 4, 3), 0.4)
        other = np.full((4, 4, 3), 0.6)
        scores = cached.batch([image, other, image, image])
        assert counting.count == 2  # two distinct images, one pass each
        assert np.array_equal(scores[0], scores[2])
        assert np.array_equal(scores[0], scores[3])

    def test_second_pass_is_all_hits(self, toy):
        counting = CountingClassifier(toy)
        cached = CachedClassifier(counting)
        rng = np.random.default_rng(2)
        images = rng.uniform(size=(4, 4, 4, 3))
        first = cached.batch(images)
        second = cached.batch(images)
        assert counting.count == 4
        assert cached.cache.hits == 4
        assert np.array_equal(first, second)

    def test_empty_batch(self, toy):
        cached = CachedClassifier(toy)
        out = cached.batch(np.empty((0, 4, 4, 3)))
        assert out.shape[0] == 0

    def test_single_image_miss_with_squeezing_batch_classifier(self, toy):
        """Regression: a classifier whose ``batch`` returns a flat
        ``(C,)`` vector for a single-image batch must not corrupt the
        miss-path assembly (one miss among hits reaches the model as a
        batch of one)."""

        class SqueezingBatch:
            def __init__(self, inner):
                self.inner = inner

            def __call__(self, image):
                return self.inner(image)

            def batch(self, images):
                rows = np.stack([self.inner(image) for image in images])
                return rows[0] if len(rows) == 1 else rows

        cached = CachedClassifier(SqueezingBatch(toy))
        warm = np.full((4, 4, 3), 0.3)
        cold = np.full((4, 4, 3), 0.7)
        cached(warm)  # seed the cache so the batch below has one miss
        scores = cached.batch([warm, cold])
        assert scores.shape == (2, 3)
        assert scores.dtype == np.float64
        assert np.array_equal(scores[0], toy(warm))
        assert np.array_equal(scores[1], toy(cold))
        assert cached.cache.hits == 1

    def test_miss_path_accepts_list_returning_classifier(self, toy):
        """Regression: a fallback per-image classifier returning plain
        Python lists still assembles a float64 score matrix."""

        class ListScores:
            def __init__(self, inner):
                self.inner = inner

            def __call__(self, image):
                return [float(v) for v in self.inner(image)]

        cached = CachedClassifier(ListScores(toy))
        images = np.random.default_rng(12).uniform(size=(3, 4, 4, 3))
        scores = cached.batch(images)
        assert scores.shape == (3, 3)
        assert scores.dtype == np.float64
        assert np.array_equal(scores, np.stack([toy(image) for image in images]))

    def test_misses_routed_through_batch_scores(self, toy):
        """The batch path must reach a native ``batch`` method when the
        underlying classifier has one, not fall back to per-image calls."""

        class BatchOnlyCounter:
            def __init__(self, inner):
                self.inner = inner
                self.batch_calls = 0

            def __call__(self, image):
                raise AssertionError("misses must go through batch()")

            def batch(self, images):
                self.batch_calls += 1
                return np.stack([self.inner(image) for image in images])

        probe = BatchOnlyCounter(toy)
        cached = CachedClassifier(probe)
        rng = np.random.default_rng(3)
        images = rng.uniform(size=(5, 4, 4, 3))
        cached.batch(images)
        assert probe.batch_calls == 1


class TestCacheVersusQueryCount:
    """The threat-model distinction the runtime documents and relies on."""

    def test_cache_outside_boundary_hits_are_not_counted(self, toy):
        """``CachedClassifier(CountingClassifier(model))``: a hit never
        reaches the counting classifier, so ``count`` does not move --
        the attacker refuses to pay twice for one submission."""
        counting = CountingClassifier(toy)
        cached = CachedClassifier(counting)
        image = np.full((4, 4, 3), 0.5)
        cached(image)
        assert counting.count == 1
        cached(image)
        cached(image)
        assert counting.count == 1  # hits served without incrementing
        assert cached.cache.hits == 2

    def test_cache_outside_boundary_preserves_budget(self, toy):
        counting = CountingClassifier(toy, budget=1)
        cached = CachedClassifier(counting)
        image = np.full((4, 4, 3), 0.5)
        cached(image)
        # budget exhausted, but the repeat is a cache hit, not a query
        assert np.array_equal(cached(image), cached(image))
        assert counting.remaining == 0

    def test_cache_inside_boundary_keeps_counts_faithful(self, toy):
        """``CountingClassifier(CachedClassifier(model))``: every
        submission is counted, cache or not -- the paper-faithful
        arrangement the execution engine uses for attack runs."""
        cached = CachedClassifier(toy)
        counting = CountingClassifier(cached)
        image = np.full((4, 4, 3), 0.5)
        counting(image)
        counting(image)
        assert counting.count == 2  # both submissions counted
        assert cached.cache.hits == 1  # only one forward pass paid


class TestUnchangedSentinel:
    def test_reset_keeps_budget_by_default(self, toy):
        counting = CountingClassifier(toy, budget=5)
        counting(np.zeros((4, 4, 3)))
        counting.reset()
        assert counting.count == 0
        assert counting.budget == 5

    def test_reset_installs_new_budget(self, toy):
        counting = CountingClassifier(toy, budget=5)
        counting.reset(budget=9)
        assert counting.budget == 9
        counting.reset(budget=None)
        assert counting.budget is None

    def test_reset_rejects_negative_budget(self, toy):
        counting = CountingClassifier(toy, budget=5)
        with pytest.raises(ValueError):
            counting.reset(budget=-2)

    def test_string_budget_is_no_longer_magic(self, toy):
        """The old string sentinel collided with user values; with the
        module-level sentinel object a literal ``"unchanged"`` string is
        just an invalid budget and is rejected loudly instead of being
        silently treated as "keep the current budget"."""
        counting = CountingClassifier(toy, budget=5)
        with pytest.raises(TypeError):
            counting.reset(budget="unchanged")
        with pytest.raises(TypeError):
            CountingClassifier(toy, budget="unchanged")

    def test_sentinel_identity(self):
        assert _UNCHANGED is not None
        assert repr(_UNCHANGED) == "<budget unchanged>"


class TestLatencyClassifier:
    def test_passthrough_scores(self, toy):
        slow = LatencyClassifier(toy, latency=0.0)
        image = np.full((4, 4, 3), 0.3)
        assert np.array_equal(slow(image), toy(image))

    def test_rejects_negative_latency(self, toy):
        with pytest.raises(ValueError):
            LatencyClassifier(toy, latency=-0.1)


class TestRunLog:
    def test_in_memory_events(self):
        log = RunLog(clock=lambda: 123.0)
        log.emit("alpha", value=1)
        log.emit("beta")
        log.emit("alpha", value=2)
        assert log.counts() == {"alpha": 2, "beta": 1}
        assert [e["value"] for e in log.of_type("alpha")] == [1, 2]
        assert all(e["ts"] == 123.0 for e in log.events)

    def test_jsonl_roundtrip(self, tmp_path):
        path = str(tmp_path / "nested" / "run.jsonl")
        with RunLog(path) as log:
            log.emit("task_end", index=0, ok=True)
            log.emit("run_end", wall_time=0.5)
        events = RunLog.read(path)
        assert [e["event"] for e in events] == ["task_end", "run_end"]
        assert events[0]["index"] == 0

    def test_append_mode(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with RunLog(path) as log:
            log.emit("first")
        with RunLog(path) as log:
            log.emit("second")
        assert [e["event"] for e in RunLog.read(path)] == ["first", "second"]

    def test_null_log_swallows_everything(self):
        log = NullRunLog()
        assert log.emit("anything", x=1) == {}
        assert log.events == []
