"""Tests for attack sessions and the session manager."""

import numpy as np
import pytest

from repro.attacks.fixed_sketch import FixedSketchAttack
from repro.attacks.random_search import UniformRandomAttack, UniformRandomConfig
from repro.classifier.toy import LinearPixelClassifier, make_toy_images
from repro.runtime.events import RunLog
from repro.serve.broker import MicroBatchBroker
from repro.serve.sessions import (
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    AttackSession,
    SessionManager,
)


@pytest.fixture
def classifier(toy_shape):
    return LinearPixelClassifier(toy_shape, num_classes=3, seed=1, temperature=0.05)


@pytest.fixture
def manager(classifier):
    return SessionManager(MicroBatchBroker(classifier), max_workers=4)


def _job(classifier, toy_shape, seed=20):
    image = make_toy_images(1, toy_shape, seed=seed)[0]
    return image, int(np.argmax(classifier(image)))


class TestAttackSession:
    def test_lifecycle(self, classifier, toy_shape):
        image, label = _job(classifier, toy_shape)
        session = AttackSession("s1", FixedSketchAttack(), image, label, budget=300)
        assert session.state == QUEUED
        request = session.start()
        assert session.state == RUNNING
        while request is not None:
            request = session.advance(classifier(request.image))
        assert session.state == DONE
        assert session.result is not None
        # accounting invariant: externally counted == attack's own tally
        assert session.queries == session.result.queries

    def test_double_start_rejected(self, classifier, toy_shape):
        image, label = _job(classifier, toy_shape)
        session = AttackSession("s1", FixedSketchAttack(), image, label)
        session.start()
        with pytest.raises(RuntimeError):
            session.start()

    def test_advance_without_pending_rejected(self, classifier, toy_shape):
        image, label = _job(classifier, toy_shape)
        session = AttackSession("s1", FixedSketchAttack(), image, label)
        with pytest.raises(RuntimeError):
            session.advance(np.zeros(3))

    def test_fail_records_error(self, classifier, toy_shape):
        image, label = _job(classifier, toy_shape)
        session = AttackSession("s1", FixedSketchAttack(), image, label)
        session.start()
        session.fail(RuntimeError("boom"))
        assert session.state == FAILED
        assert "boom" in session.error

    def test_to_dict_is_json_safe(self, classifier, toy_shape):
        import json

        image, label = _job(classifier, toy_shape)
        session = AttackSession("s1", FixedSketchAttack(), image, label, budget=300)
        request = session.start()
        while request is not None:
            request = session.advance(classifier(request.image))
        payload = session.to_dict()
        json.dumps(payload)  # must not raise
        assert payload["state"] == DONE
        assert payload["queries"] == session.queries
        assert payload["result"]["queries"] == session.result.queries


class TestSessionManager:
    def test_ids_are_sequential(self, manager, classifier, toy_shape):
        image, label = _job(classifier, toy_shape)
        first = manager.create(FixedSketchAttack(), image, label)
        second = manager.create(FixedSketchAttack(), image, label)
        assert (first.session_id, second.session_id) == ("s1", "s2")
        assert manager.get("s1") is first
        assert manager.get("missing") is None

    def test_many_sessions_share_one_broker(self, classifier, toy_shape):
        broker = MicroBatchBroker(classifier).start()
        manager = SessionManager(broker)
        jobs = [_job(classifier, toy_shape, seed=s) for s in range(30, 36)]
        sessions = [
            manager.create(
                UniformRandomAttack(UniformRandomConfig(seed=s)),
                image,
                label,
                budget=150,
            )
            for s, (image, label) in enumerate(jobs)
        ]
        try:
            for future in [manager.start(session) for session in sessions]:
                future.result(timeout=60)
        finally:
            manager.shutdown()
            broker.stop()
        assert all(session.state == DONE for session in sessions)
        for session in sessions:
            assert session.queries == session.result.queries

    def test_threaded_drive(self, manager, classifier, toy_shape):
        manager.broker.start()
        try:
            jobs = [_job(classifier, toy_shape, seed=s) for s in range(40, 44)]
            sessions = [
                manager.create(FixedSketchAttack(), image, label, budget=300)
                for image, label in jobs
            ]
            futures = [manager.start(session) for session in sessions]
            for future in futures:
                future.result(timeout=60)
        finally:
            manager.broker.stop()
            manager.shutdown()
        assert all(session.state == DONE for session in sessions)

    def test_drive_failure_marks_session(self, toy_shape):
        def broken(image):
            raise RuntimeError("model exploded")

        with MicroBatchBroker(broken) as broker:
            manager = SessionManager(broker)
            image = make_toy_images(1, toy_shape, seed=50)[0]
            session = manager.create(FixedSketchAttack(), image, 0, budget=10)
            manager.drive(session)
        assert session.state == FAILED
        assert "model exploded" in session.error

    def test_history_trim(self, classifier, toy_shape):
        manager = SessionManager(MicroBatchBroker(classifier), history=2)
        image, label = _job(classifier, toy_shape)
        sessions = [
            manager.create(FixedSketchAttack(), image, label, budget=100)
            for _ in range(4)
        ]
        with manager.broker:
            for session in sessions:
                manager.drive(session)
        assert manager.get(sessions[0].session_id) is None
        assert manager.get(sessions[-1].session_id) is not None
        assert len(manager.list_sessions()) == 2

    def test_observability(self, manager, classifier, toy_shape):
        image, label = _job(classifier, toy_shape)
        session = manager.create(FixedSketchAttack(), image, label, budget=100)
        assert manager.active_count() == 1
        assert manager.states() == {QUEUED: 1}
        with manager.broker:
            manager.drive(session)
        assert manager.active_count() == 0
        assert manager.query_counts()[session.session_id] == session.queries

    def test_telemetry_events(self, classifier, toy_shape):
        log = RunLog()
        manager = SessionManager(MicroBatchBroker(classifier), run_log=log)
        image, label = _job(classifier, toy_shape)
        session = manager.create(FixedSketchAttack(), image, label, budget=100)
        with manager.broker:
            manager.drive(session)
        names = [event["event"] for event in log.events]
        assert "session_created" in names
        assert "session_end" in names
        end = next(e for e in log.events if e["event"] == "session_end")
        assert end["queries"] == session.queries
        assert end["state"] == DONE

    def test_validation(self, classifier):
        broker = MicroBatchBroker(classifier)
        with pytest.raises(ValueError):
            SessionManager(broker, max_workers=0)
        with pytest.raises(ValueError):
            SessionManager(broker, history=-1)
