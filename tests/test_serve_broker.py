"""Tests for the micro-batching query broker."""

import threading
import time

import numpy as np
import pytest

from repro.attacks.fixed_sketch import FixedSketchAttack
from repro.attacks.random_search import UniformRandomAttack, UniformRandomConfig
from repro.classifier.toy import LinearPixelClassifier, make_toy_images
from repro.core.stepping import drive_steps
from repro.runtime.cache import QueryCache
from repro.runtime.events import RunLog
from repro.serve.broker import BatchPolicy, BrokerStopped, MicroBatchBroker
from repro.serve.sessions import SessionManager


@pytest.fixture
def classifier(toy_shape):
    return LinearPixelClassifier(toy_shape, num_classes=3, seed=1, temperature=0.05)


class TestBatchPolicy:
    def test_defaults(self):
        policy = BatchPolicy()
        assert policy.max_batch_size == 32
        assert policy.max_wait > 0

    @pytest.mark.parametrize("kwargs", [{"max_batch_size": 0}, {"max_wait": -1}])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            BatchPolicy(**kwargs)


class TestEvaluate:
    def test_matches_direct_calls(self, classifier, toy_shape):
        broker = MicroBatchBroker(classifier)
        images = make_toy_images(5, toy_shape, seed=4)
        scores = broker.evaluate(images)
        for image, row in zip(images, scores):
            assert np.array_equal(row, classifier(image))

    def test_empty_batch(self, classifier):
        assert MicroBatchBroker(classifier).evaluate([]) == []

    def test_intra_batch_dedup(self, classifier, toy_shape):
        calls = []

        def spy(image):
            calls.append(1)
            return classifier(image)

        broker = MicroBatchBroker(spy)
        image = make_toy_images(1, toy_shape, seed=5)[0]
        scores = broker.evaluate([image, image, image])
        assert len(calls) == 1  # three queries, one forward pass
        assert all(np.array_equal(row, scores[0]) for row in scores)
        snapshot = broker.stats()
        assert snapshot["coalesced_duplicates"] == 2

    def test_cache_across_flushes(self, classifier, toy_shape):
        broker = MicroBatchBroker(classifier, cache=QueryCache(64))
        image = make_toy_images(1, toy_shape, seed=6)[0]
        broker.evaluate([image])
        broker.evaluate([image])
        stats = broker.stats()["cache"]
        assert stats["hits"] == 1
        assert stats["misses"] == 1

    def test_returned_scores_are_isolated(self, classifier, toy_shape):
        """Mutating a returned vector must not corrupt later answers."""
        broker = MicroBatchBroker(classifier, cache=QueryCache(64))
        image = make_toy_images(1, toy_shape, seed=7)[0]
        first = broker.evaluate([image])[0]
        expected = first.copy()
        first[:] = -1.0
        again = broker.evaluate([image])[0]
        assert np.array_equal(again, expected)

    def test_flush_telemetry(self, classifier, toy_shape):
        log = RunLog()
        broker = MicroBatchBroker(classifier, run_log=log)
        broker.evaluate(make_toy_images(3, toy_shape, seed=8))
        events = [e for e in log.events if e["event"] == "broker_flush"]
        assert len(events) == 1
        assert events[0]["batch"] == 3


class TestSubmit:
    def test_submit_requires_running(self, classifier, toy_shape):
        broker = MicroBatchBroker(classifier)
        with pytest.raises(BrokerStopped):
            broker.submit(make_toy_images(1, toy_shape, seed=9)[0])
        assert broker.stats()["rejected"] == 1

    def test_concurrent_submits_coalesce(self, classifier, toy_shape):
        images = make_toy_images(8, toy_shape, seed=10)
        expected = [classifier(image) for image in images]
        results = [None] * len(images)
        barrier = threading.Barrier(len(images))

        policy = BatchPolicy(max_batch_size=8, max_wait=0.5)
        with MicroBatchBroker(classifier, policy=policy) as broker:

            def worker(position):
                barrier.wait()
                results[position] = broker.submit(images[position])

            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(len(images))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            snapshot = broker.stats()
        for row, want in zip(results, expected):
            assert np.array_equal(row, want)
        assert snapshot["submitted"] == 8
        # all 8 queued behind the barrier: at most a couple of flushes
        assert snapshot["flushes"] <= 3
        assert snapshot["batch_sizes"]["max"] >= 2

    def test_stop_fails_pending(self, classifier, toy_shape):
        image = make_toy_images(1, toy_shape, seed=11)[0]
        # max_wait so long the only way out is stop()
        policy = BatchPolicy(max_batch_size=64, max_wait=30.0)
        broker = MicroBatchBroker(classifier, policy=policy).start()
        errors = []

        def submitter():
            try:
                broker.submit(image)
            except BrokerStopped as exc:
                errors.append(exc)

        thread = threading.Thread(target=submitter)
        thread.start()
        while broker.queue_depth == 0:
            pass
        broker.stop()
        thread.join(timeout=10)
        assert len(errors) == 1

    def test_stop_emits_summary(self, classifier):
        log = RunLog()
        broker = MicroBatchBroker(classifier, run_log=log).start()
        broker.stop()
        assert any(e["event"] == "broker_summary" for e in log.events)

    def test_start_is_idempotent(self, classifier):
        broker = MicroBatchBroker(classifier).start()
        assert broker.start() is broker
        broker.stop()


class TestBrokerDeterminism:
    """The broker-determinism satellite: an attack driven through the
    broker must produce a bit-identical AttackResult to a direct run."""

    @pytest.mark.parametrize(
        "attack_factory",
        [FixedSketchAttack, lambda: UniformRandomAttack(UniformRandomConfig(seed=2))],
        ids=["fixed-sketch", "uniform-random"],
    )
    def test_bit_identical_to_direct_run(
        self, attack_factory, classifier, toy_shape
    ):
        image = make_toy_images(1, toy_shape, seed=12)[0]
        true_class = int(np.argmax(classifier(image)))
        direct = drive_steps(
            attack_factory().steps(image, true_class, budget=400), classifier
        )

        broker = MicroBatchBroker(classifier, cache=QueryCache(256))
        manager = SessionManager(broker)
        session = manager.create(attack_factory(), image, true_class, budget=400)
        with broker:
            manager.drive(session)
        manager.shutdown()

        served = session.result
        assert served.success == direct.success
        assert served.queries == direct.queries
        assert served.location == direct.location
        assert served.adversarial_class == direct.adversarial_class
        if direct.perturbation is None:
            assert served.perturbation is None
        else:
            assert np.array_equal(served.perturbation, direct.perturbation)

    def test_bit_identical_under_threaded_driving(self, classifier, toy_shape):
        """Even with threads and micro-batching, per-session results
        match the direct run: batching changes scheduling, not scores."""
        images = make_toy_images(6, toy_shape, seed=13)
        jobs = [(image, int(np.argmax(classifier(image)))) for image in images]
        direct = [
            drive_steps(
                FixedSketchAttack().steps(image, label, budget=400), classifier
            )
            for image, label in jobs
        ]

        policy = BatchPolicy(max_batch_size=6, max_wait=0.002)
        with MicroBatchBroker(
            classifier, policy=policy, cache=QueryCache(1024)
        ) as broker:
            manager = SessionManager(broker, max_workers=6)
            sessions = [
                manager.create(FixedSketchAttack(), image, label, budget=400)
                for image, label in jobs
            ]
            futures = [manager.start(session) for session in sessions]
            for future in futures:
                future.result(timeout=60)
            manager.shutdown()

        for session, want in zip(sessions, direct):
            assert session.result.success == want.success
            assert session.result.queries == want.queries
            assert session.result.location == want.location


class TestSingleFlight:
    """The in-flight-miss table: concurrent calls never double-score."""

    def _counting_classifier(self, classifier, delay=0.005):
        forwards = {}
        lock = threading.Lock()

        def spy(image):
            key = image.tobytes()
            with lock:
                forwards[key] = forwards.get(key, 0) + 1
            time.sleep(delay)  # widen the old miss-decide/put race window
            return classifier(image)

        return spy, forwards

    def test_one_forward_per_distinct_image_under_concurrency(
        self, classifier, toy_shape
    ):
        """Stress evaluate/submit/submit_many concurrently over an
        overlapping image set: every distinct image must cost exactly
        one model forward (the single-flight guarantee the broker
        docstring promises)."""
        spy, forwards = self._counting_classifier(classifier)
        images = make_toy_images(6, toy_shape, seed=21)
        broker = MicroBatchBroker(
            spy,
            policy=BatchPolicy(max_batch_size=4, max_wait=0.001),
            cache=QueryCache(256),
        )
        broker.start()
        errors = []
        barrier = threading.Barrier(13)

        def run(call):
            try:
                barrier.wait(timeout=10)
                call()
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        workers = []
        for start in range(4):  # overlapping evaluate() windows
            subset = [images[(start + i) % len(images)] for i in range(4)]
            workers.append(
                threading.Thread(target=run, args=(lambda s=subset: broker.evaluate(s),))
            )
        for i in range(6):  # scalar submits through the flusher
            workers.append(
                threading.Thread(
                    target=run, args=(lambda i=i: broker.submit(images[i]),)
                )
            )
        for start in (0, 3, 1):  # batch-native submit_many
            subset = [images[(start + i) % len(images)] for i in range(3)]
            workers.append(
                threading.Thread(
                    target=run, args=(lambda s=subset: broker.submit_many(s),)
                )
            )
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=30)
        broker.stop()

        assert not errors
        assert len(forwards) == len(images)
        assert all(count == 1 for count in forwards.values())
        assert broker._in_flight == {}

    def test_joined_callers_get_correct_scores(self, classifier, toy_shape):
        spy, _forwards = self._counting_classifier(classifier, delay=0.02)
        image = make_toy_images(1, toy_shape, seed=22)[0]
        broker = MicroBatchBroker(spy, cache=QueryCache(16))
        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(broker.evaluate([image])[0])
            )
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        expected = classifier(image)
        assert len(results) == 4
        for row in results:
            assert np.array_equal(row, expected)

    def test_leader_failure_releases_joiners(self, classifier, toy_shape):
        """A model error must resolve the flight with that error --
        joiners re-raise instead of hanging, and the table drains."""

        class Boom(RuntimeError):
            pass

        def failing(image):
            time.sleep(0.02)
            raise Boom("model exploded")

        image = make_toy_images(1, toy_shape, seed=23)[0]
        broker = MicroBatchBroker(failing, cache=QueryCache(16))
        outcomes = []

        def call():
            try:
                broker.evaluate([image])
                outcomes.append("ok")
            except Boom:
                outcomes.append("boom")

        threads = [threading.Thread(target=call) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert outcomes == ["boom", "boom", "boom"]
        assert broker._in_flight == {}
