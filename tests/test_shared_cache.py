"""Tests for the shared L2 query-cache tier (DESIGN §15).

Covers the wire encoding, the :class:`TieredQueryCache` contract
(L1-only hot path, batched L2 round trips, silent degradation), the
cache-service HTTP surface, cross-broker sharing through a real loopback
service, the cluster metrics rollup, the differential sweep, and the
``--shared-cache`` CLI surface.
"""

import threading

import numpy as np
import pytest

from repro.classifier.toy import SmoothLinearClassifier
from repro.cluster.cacheservice import (
    CacheServiceHandle,
    HttpSharedCacheClient,
    SharedCacheService,
    parse_cache_address,
)
from repro.cluster.metrics import merge_cache_stats
from repro.runtime.cache import (
    QueryCache,
    TieredQueryCache,
    decode_scores,
    encode_scores,
    image_digest,
)
from repro.serve.broker import MicroBatchBroker
from repro.testkit.sharedcache import (
    InMemorySharedCache,
    shared_cache_sweep,
    tiered_broker_factory,
)


def _toy_images(count, seed=7, shape=(4, 4, 3)):
    rng = np.random.default_rng(seed)
    return [rng.random(shape).astype(np.float32) for _ in range(count)]


class TestScoreWireEncoding:
    @pytest.mark.parametrize(
        "dtype", [np.float32, np.float64, np.int64, np.float16]
    )
    def test_roundtrip_is_bit_exact(self, dtype):
        rng = np.random.default_rng(3)
        scores = rng.standard_normal(10).astype(dtype)
        decoded = decode_scores(encode_scores(scores))
        assert decoded.dtype == scores.dtype
        assert decoded.shape == scores.shape
        assert decoded.tobytes() == scores.tobytes()

    def test_roundtrip_preserves_shape(self):
        scores = np.arange(12, dtype=np.float32).reshape(3, 4)
        decoded = decode_scores(encode_scores(scores))
        assert decoded.shape == (3, 4)
        np.testing.assert_array_equal(decoded, scores)

    def test_survives_json(self):
        import json

        scores = np.array([1.0, -2.5, 3e-8], dtype=np.float64)
        payload = json.loads(json.dumps(encode_scores(scores)))
        np.testing.assert_array_equal(decode_scores(payload), scores)

    def test_decoded_array_is_writable(self):
        decoded = decode_scores(encode_scores(np.ones(3, dtype=np.float32)))
        decoded[0] = 9.0  # frombuffer alone would be read-only


class TestTieredQueryCache:
    def test_get_put_touch_l1_only(self):
        shared = InMemorySharedCache()
        tiered = TieredQueryCache(QueryCache(8), shared)
        key = b"k" * 20
        scores = np.array([1.0, 2.0], dtype=np.float32)
        assert tiered.get(key) is None
        tiered.put(key, scores)
        np.testing.assert_array_equal(tiered.get(key), scores)
        assert shared.operations == 0  # no remote round trips on hot path

    def test_fetch_remote_promotes_and_counts(self):
        shared = InMemorySharedCache()
        key_hit, key_miss = b"a" * 20, b"b" * 20
        scores = np.array([0.5, 0.25], dtype=np.float32)
        shared.store({key_hit: scores})
        tiered = TieredQueryCache(QueryCache(8), shared)
        found = tiered.fetch_remote([key_hit, key_miss])
        assert set(found) == {key_hit}
        np.testing.assert_array_equal(found[key_hit], scores)
        assert tiered.l2_hits == 1 and tiered.l2_misses == 1
        # one lookup round trip total, and the hit is now local
        lookups_after_fetch = shared.operations
        np.testing.assert_array_equal(tiered.get(key_hit), scores)
        assert shared.operations == lookups_after_fetch

    def test_store_remote_writes_through(self):
        shared = InMemorySharedCache()
        tiered = TieredQueryCache(QueryCache(8), shared)
        key = b"c" * 20
        tiered.store_remote({key: np.array([1.0], dtype=np.float32)})
        assert tiered.l2_stores == 1
        assert shared.stored == 1
        assert set(tiered.fetch_remote([key])) == {key}

    def test_transport_error_degrades_silently(self):
        shared = InMemorySharedCache(fail_after=0)
        tiered = TieredQueryCache(QueryCache(8), shared, cooldown=3600.0)
        assert tiered.fetch_remote([b"x" * 20]) == {}
        assert tiered.l2_errors == 1
        assert tiered.degraded
        # suspended: further operations never touch the remote
        tiered.store_remote({b"y" * 20: np.ones(2, dtype=np.float32)})
        assert tiered.fetch_remote([b"x" * 20]) == {}
        assert tiered.l2_errors == 1
        # L1 keeps working throughout
        tiered.put(b"z" * 20, np.ones(2, dtype=np.float32))
        assert tiered.get(b"z" * 20) is not None

    def test_cooldown_expiry_reprobes(self):
        shared = InMemorySharedCache(fail_after=0)
        tiered = TieredQueryCache(QueryCache(8), shared, cooldown=0.0)
        tiered.fetch_remote([b"x" * 20])
        shared.fail_after = None  # "service restarted"
        shared.store({b"x" * 20: np.ones(2, dtype=np.float32)})
        assert set(tiered.fetch_remote([b"x" * 20])) == {b"x" * 20}
        assert not tiered.degraded

    def test_stats_shape(self):
        tiered = TieredQueryCache(QueryCache(8), InMemorySharedCache())
        stats = tiered.stats()
        assert stats["tiered"] is True
        l2 = stats["l2"]
        assert set(l2) >= {
            "hits", "misses", "stores", "errors",
            "hit_rate", "rtt_ms", "degraded",
        }
        assert {"hits", "misses", "maxsize"} <= set(stats)  # L1 shape kept

    def test_negative_cooldown_rejected(self):
        with pytest.raises(ValueError):
            TieredQueryCache(QueryCache(8), InMemorySharedCache(), cooldown=-1)


class TestCacheService:
    def test_http_lookup_store_roundtrip(self):
        with CacheServiceHandle(maxsize=16) as handle:
            client = handle.client()
            key = image_digest(np.ones((2, 2), dtype=np.float32))
            scores = np.array([0.1, 0.9], dtype=np.float64)
            assert client.lookup([key]) == {}
            client.store({key: scores})
            found = client.lookup([key])
            assert found[key].tobytes() == scores.tobytes()
            assert found[key].dtype == scores.dtype

    def test_healthz_and_metrics(self):
        from repro.runtime.http import http_json

        with CacheServiceHandle(maxsize=16) as handle:
            status, payload = http_json(handle.address, "GET", "/healthz")
            assert (status, payload["role"]) == (200, "shared-cache")
            handle.client().store(
                {b"k" * 20: np.ones(2, dtype=np.float32)}
            )
            status, payload = http_json(handle.address, "GET", "/metrics")
            assert status == 200
            stats = payload["shared_cache"]
            assert stats["size"] == 1
            assert stats["store_calls"] == 1

    def test_unknown_paths_and_bad_payloads(self):
        from repro.runtime.http import http_json

        with CacheServiceHandle(maxsize=16) as handle:
            status, _ = http_json(handle.address, "GET", "/nope")
            assert status == 404
            import json

            status, payload = http_json(
                handle.address,
                "POST",
                "/cache/store",
                body=json.dumps(
                    {"entries": {"zz": {"bogus": True}}}
                ).encode("utf-8"),
            )
            assert status == 400
            assert "error" in payload

    def test_client_raises_oserror_when_service_down(self):
        handle = CacheServiceHandle(maxsize=16)
        client = handle.client()
        handle.close()
        with pytest.raises(OSError):
            client.lookup([b"k" * 20])

    def test_service_store_is_bounded_lru(self):
        service = SharedCacheService(maxsize=2)
        for index in range(3):
            service.put(
                {
                    (bytes([index]) * 20).hex(): encode_scores(
                        np.array([index], dtype=np.float32)
                    )
                }
            )
        assert len(service.store) == 2
        assert service.store.evictions == 1

    def test_parse_cache_address(self):
        assert parse_cache_address("127.0.0.1:8890") == ("127.0.0.1", 8890)
        with pytest.raises(ValueError):
            parse_cache_address("8890")
        with pytest.raises(ValueError):
            parse_cache_address(":8890")
        with pytest.raises(ValueError):
            parse_cache_address("host:port")


class TestCrossBrokerSharing:
    def test_second_broker_pays_zero_forwards(self):
        """The tier's whole point: replica B reuses replica A's scores."""
        forwards = []
        base = SmoothLinearClassifier((4, 4, 3), num_classes=3, seed=5)

        def classifier_with_spy(image):
            forwards.append(1)
            return base(image)

        images = _toy_images(5, seed=11)
        with CacheServiceHandle(maxsize=64) as handle:
            def broker_for_replica():
                return MicroBatchBroker(
                    classifier_with_spy,
                    cache=TieredQueryCache(QueryCache(64), handle.client()),
                )

            broker_a = broker_for_replica()
            scores_a = broker_a.evaluate(images)
            paid_by_a = sum(forwards)
            assert paid_by_a == len(images)

            broker_b = broker_for_replica()
            scores_b = broker_b.evaluate(images)
            assert sum(forwards) == paid_by_a  # B paid nothing
            for a, b in zip(scores_a, scores_b):
                np.testing.assert_array_equal(a, b)
            assert broker_b.cache.l2_hits == len(images)

    def test_metrics_rollup_sums_l2(self):
        stats_a = {
            "hits": 3, "misses": 7,
            "l2": {"hits": 2, "misses": 5, "stores": 5, "errors": 0,
                   "rtt_ms": {"count": 7, "mean": 1.0, "max": 2.0,
                              "buckets": {"<=2": 7}}},
        }
        stats_b = {
            "hits": 1, "misses": 4,
            "l2": {"hits": 3, "misses": 1, "stores": 1, "errors": 1,
                   "rtt_ms": {"count": 4, "mean": 3.0, "max": 4.0,
                              "buckets": {"<=4": 4}}},
        }
        rollup = merge_cache_stats({"w0": stats_a, "w1": stats_b})["cluster"]
        assert rollup["l2_hits"] == 5
        assert rollup["l2_misses"] == 6
        assert rollup["l2_stores"] == 6
        assert rollup["l2_errors"] == 1
        assert rollup["shared_hit_rate"] == pytest.approx(5 / 11)
        assert rollup["l2_rtt_ms"]["count"] == 11

    def test_metrics_rollup_without_l2_is_unchanged(self):
        rollup = merge_cache_stats(
            {"w0": {"hits": 2, "misses": 2}}
        )["cluster"]
        assert "l2_hits" not in rollup
        assert rollup == {"hits": 2, "misses": 2, "hit_rate": 0.5}


class TestDifferentialSweep:
    def test_small_sweep_is_bit_identical(self):
        report = shared_cache_sweep(seeds=range(4), budget=30)
        assert report["divergences"] == []
        assert report["warm_hits"] > 0
        assert report["ok"]

    def test_sweep_rejects_unknown_modes(self):
        with pytest.raises(ValueError):
            shared_cache_sweep(modes=("off", "bogus"))

    def test_factory_leaves_uncached_cells_uncached(self):
        factory = tiered_broker_factory(InMemorySharedCache())
        broker = factory(
            SmoothLinearClassifier((4, 4, 3), num_classes=3, seed=1), None
        )
        assert broker.cache is None


class TestServeFlags:
    def test_serve_config_defaults(self):
        from repro.serve.server import ServeConfig

        config = ServeConfig()
        assert config.shared_cache is None
        assert config.shared_cache_size == 65536

    def test_parser_accepts_host_port(self):
        from repro.serve.server import build_parser

        args = build_parser().parse_args(
            ["--shared-cache", "127.0.0.1:9100"]
        )
        assert args.shared_cache == "127.0.0.1:9100"

    def test_parser_bare_flag_means_auto(self):
        from repro.serve.server import build_parser

        args = build_parser().parse_args(["--shared-cache"])
        assert args.shared_cache == "auto"
        assert build_parser().parse_args([]).shared_cache is None

    def test_single_process_auto_is_an_error(self):
        from repro.serve import server as serve_server

        with pytest.raises(SystemExit):
            serve_server.main(["--port", "0", "--shared-cache"])

    def test_server_wraps_cache_when_shared(self):
        from repro.serve.server import AttackServer, ServeConfig

        with CacheServiceHandle(maxsize=16) as handle:
            config = ServeConfig(
                port=0,
                shared_cache="%s:%d" % handle.address,
                height=4, width=4, num_classes=3,
            )
            server = AttackServer(config)
            try:
                assert isinstance(server.cache, TieredQueryCache)
            finally:
                server.stop()

    def test_server_without_flag_keeps_plain_cache(self):
        from repro.serve.server import AttackServer, ServeConfig

        server = AttackServer(
            ServeConfig(port=0, height=4, width=4, num_classes=3)
        )
        try:
            assert isinstance(server.cache, QueryCache)
        finally:
            server.stop()


class TestTieredCacheThreadSafety:
    def test_concurrent_fetch_and_store(self):
        shared = InMemorySharedCache()
        tiered = TieredQueryCache(QueryCache(128), shared)
        errors = []

        def worker(offset):
            try:
                for index in range(25):
                    key = bytes([offset, index]) * 10
                    tiered.store_remote(
                        {key: np.array([offset, index], dtype=np.float32)}
                    )
                    tiered.fetch_remote([key])
            except Exception as exc:  # pragma: no cover - fail loudly
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(n,)) for n in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert errors == []
        assert tiered.l2_hits == 100
        stats = tiered.stats()
        assert stats["l2"]["rtt_ms"]["count"] == 200  # 100 fetch + 100 store
