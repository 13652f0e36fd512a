"""Session lifecycle: cancellation, deadlines, TTL reaping, shedding.

The core fidelity claim (DESIGN §16): a session cancelled or expired
after ``k`` charged queries reports exactly ``k`` and carries a result
bit-identical to a budget-``k`` scalar run.  The exhaustive differential
sweep lives in :mod:`repro.testkit.lifecycle` (and its pytest wrapper in
``tests/testkit/test_lifecycle.py``); here we pin the mechanism piece by
piece plus the HTTP surface (DELETE, 410 Gone, Retry-After).
"""

import json
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.attacks.fixed_sketch import FixedSketchAttack
from repro.classifier.toy import SmoothLinearClassifier
from repro.core.stepping import QueryBatch
from repro.runtime.events import RunLog
from repro.serve.admission import OverloadPolicy
from repro.serve.broker import MicroBatchBroker
from repro.serve.protocol import ProtocolError, decode_attack_request
from repro.serve.server import SWEEP_HEADER, AttackServer, ServeConfig, ServerHandle
from repro.serve.sessions import (
    CANCELLED,
    DEFAULT_TOMBSTONES,
    DONE,
    EXPIRED,
    AttackSession,
    SessionManager,
)
from repro.testkit.differential import result_fingerprint
from repro.testkit.kill import HARD_IMAGE_SEEDS


@pytest.fixture
def hard_classifier():
    """The seed-1 toy model the HARD_IMAGE_SEEDS cases never crack."""
    return SmoothLinearClassifier(image_shape=(6, 6, 3), num_classes=3, seed=1)


def _hard_job(classifier, image_seed=HARD_IMAGE_SEEDS[0]):
    image = np.random.default_rng(image_seed).random((6, 6, 3))
    return image, int(np.argmax(classifier(image)))


def _drive_scalar(session, classifier):
    request = session.start()
    while request is not None:
        request = session.advance(classifier(request.image))
    return session


def _golden_budget_run(classifier, image, label, budget):
    session = AttackSession(
        "golden", FixedSketchAttack(), image, label, budget=budget, batch_size=0
    )
    return _drive_scalar(session, classifier)


class TestParkFidelity:
    """park() == budget-k, the invariant everything else builds on."""

    def test_cancel_parks_with_exact_budget_k_result(self, hard_classifier):
        image, label = _hard_job(hard_classifier)
        session = AttackSession(
            "s1", FixedSketchAttack(), image, label, budget=100000, batch_size=0
        )
        request = session.start()
        while request is not None and session.queries < 11:
            request = session.advance(hard_classifier(request.image))
        session.request_cancel()
        assert session.lifecycle_verdict() == CANCELLED
        session.park(CANCELLED)
        k = session.queries
        assert session.state == CANCELLED
        assert session.result is not None and session.result.queries == k
        golden = _golden_budget_run(hard_classifier, image, label, k)
        assert result_fingerprint(session.result) == result_fingerprint(
            golden.result
        )
        assert golden.queries == k

    def test_expiry_between_batch_charges_defers_to_boundary(
        self, hard_classifier
    ):
        """A deadline landing mid-batch parks at the *boundary*, exactly.

        The observer fires per charged member; blowing the deadline
        after the first charge of a speculative QueryBatch must not
        truncate the batch -- every member the attack consumes is still
        charged, and the park happens at the next query boundary with
        the full count (which the budget-k differential then matches).
        """
        image, label = _hard_job(hard_classifier)
        state = {"armed": False}

        session = AttackSession(
            "s1", FixedSketchAttack(), image, label, budget=100000, batch_size=8
        )

        def blow_deadline_once(query, scores):
            if not state["armed"] and session.queries >= 3:
                session.deadline_at = time.monotonic() - 1.0
                state["armed"] = True

        session.observer = blow_deadline_once
        saw_batch = False
        request = session.start()
        while request is not None:
            verdict = session.lifecycle_verdict()
            if verdict is not None:
                session.park(verdict)
                break
            if isinstance(request, QueryBatch):
                saw_batch = True
                scores = [hard_classifier(im) for im in request.images()]
            else:
                scores = hard_classifier(request.image)
            request = session.advance(scores)
        assert saw_batch, "test needs batched stepping to mean anything"
        assert state["armed"]
        assert session.state == EXPIRED
        k = session.queries
        assert k >= 3
        assert session.result is not None and session.result.queries == k
        golden = _golden_budget_run(hard_classifier, image, label, k)
        assert result_fingerprint(session.result) == result_fingerprint(
            golden.result
        )

    def test_park_before_start_yields_zero_queries(self, hard_classifier):
        image, label = _hard_job(hard_classifier)
        session = AttackSession("s1", FixedSketchAttack(), image, label)
        assert session.request_cancel()
        session.park(CANCELLED)
        assert session.state == CANCELLED
        assert session.queries == 0

    def test_park_is_noop_on_terminal_sessions(self, hard_classifier):
        image, label = _hard_job(hard_classifier)
        session = AttackSession(
            "s1", FixedSketchAttack(), image, label, budget=5, batch_size=0
        )
        _drive_scalar(session, hard_classifier)
        assert session.state == DONE
        done_result = session.result
        session.park(CANCELLED)
        assert session.state == DONE
        assert session.result is done_result
        assert not session.request_cancel()


class TestVerdicts:
    def test_cancel_wins_over_expiry(self, hard_classifier):
        image, label = _hard_job(hard_classifier)
        session = AttackSession(
            "s1", FixedSketchAttack(), image, label, deadline_seconds=0.5
        )
        session.start()
        session.request_cancel()
        assert session.lifecycle_verdict(now=session.deadline_at + 9) == CANCELLED

    def test_deadline_armed_at_start_not_creation(self, hard_classifier):
        image, label = _hard_job(hard_classifier)
        session = AttackSession(
            "s1", FixedSketchAttack(), image, label, deadline_seconds=30.0
        )
        assert session.deadline_at is None  # queue wait is free
        session.start()
        assert session.deadline_at is not None
        assert session.lifecycle_verdict(now=session.deadline_at - 1) is None
        assert session.lifecycle_verdict(now=session.deadline_at + 1) == EXPIRED

    def test_to_dict_exposes_deadline_and_cancel_flag(self, hard_classifier):
        image, label = _hard_job(hard_classifier)
        session = AttackSession(
            "s1", FixedSketchAttack(), image, label, deadline_seconds=9.0
        )
        session.request_cancel()
        payload = session.to_dict()
        assert payload["deadline_seconds"] == 9.0
        assert payload["cancel_requested"] is True
        json.dumps(payload)  # must stay JSON-safe


class TestManagerLifecycle:
    def test_drive_parks_cancelled_and_emits_event(self, hard_classifier):
        log = RunLog()
        broker = MicroBatchBroker(hard_classifier)
        manager = SessionManager(broker, max_workers=2, run_log=log)
        broker.start()
        try:
            image, label = _hard_job(hard_classifier)
            session = manager.create(
                FixedSketchAttack(), image, label, budget=100000
            )
            future = manager.start(session)
            deadline = time.monotonic() + 30
            while session.queries < 5 and time.monotonic() < deadline:
                time.sleep(0.002)
            session.request_cancel()
            future.result(timeout=30)
        finally:
            manager.shutdown()
            broker.stop()
        assert session.state == CANCELLED
        assert session.result is not None
        assert session.result.queries == session.queries
        events = [e for e in log.events if e["event"] == "session_cancelled"]
        assert len(events) == 1
        # mirrors the attack_summary shape: identity + final counts
        assert events[0]["queries"] == session.queries
        assert events[0]["budget"] == 100000
        assert events[0]["success"] is False
        assert manager.lifecycle_stats()["cancelled"] == 1

    def test_expired_session_emits_session_expired(self, hard_classifier):
        log = RunLog()
        broker = MicroBatchBroker(hard_classifier)
        manager = SessionManager(broker, max_workers=1, run_log=log)
        image, label = _hard_job(hard_classifier)
        session = manager.create(
            FixedSketchAttack(), image, label, budget=100000,
            deadline_seconds=30.0,
        )
        session.start()
        session.deadline_at = time.monotonic() - 1.0
        verdict = session.lifecycle_verdict()
        assert verdict == EXPIRED
        session.park(verdict)
        manager._retire(session)
        events = [e for e in log.events if e["event"] == "session_expired"]
        assert len(events) == 1
        assert events[0]["deadline_seconds"] == 30.0
        assert events[0]["queries"] == session.queries
        assert manager.lifecycle_stats()["expired"] == 1

    def test_cooperative_run_parks_verdict_sessions(self, hard_classifier):
        broker = MicroBatchBroker(hard_classifier)
        manager = SessionManager(broker, max_workers=1)
        image, label = _hard_job(hard_classifier)
        doomed = manager.create(FixedSketchAttack(), image, label, budget=100000)
        doomed.request_cancel()
        healthy = manager.create(FixedSketchAttack(), image, label, budget=100000)
        manager.run_cooperative([doomed, healthy])
        assert doomed.state == CANCELLED and doomed.queries == 0
        assert healthy.state == DONE
        assert healthy.queries == healthy.result.queries


class TestReaper:
    def _finished_manager(self, classifier, session_ttl=10.0, idle_ttl=None):
        broker = MicroBatchBroker(classifier)
        manager = SessionManager(
            broker, max_workers=1, session_ttl=session_ttl, idle_ttl=idle_ttl
        )
        image, label = _hard_job(classifier)
        session = manager.create(
            FixedSketchAttack(), image, label, budget=4, batch_size=0
        )
        _drive_scalar(session, classifier)
        manager._retire(session)
        return manager, session

    def test_reap_removes_stale_terminal_sessions(self, hard_classifier):
        manager, session = self._finished_manager(hard_classifier)
        # fresh: inside TTL, untouched
        assert manager.reap(now=time.time()) == {"reaped": 0, "abandoned": 0}
        assert manager.get(session.session_id) is session
        # stale: swept into a tombstone
        swept = manager.reap(now=time.time() + 100.0)
        assert swept == {"reaped": 1, "abandoned": 0}
        assert manager.get(session.session_id) is None
        assert manager.was_reaped(session.session_id)
        assert manager.lifecycle_stats()["reaped"] == 1

    def test_poll_defers_the_reaper(self, hard_classifier):
        manager, session = self._finished_manager(hard_classifier)
        session.touch()
        baseline = session.last_polled_at
        assert manager.reap(now=baseline + 5.0) == {"reaped": 0, "abandoned": 0}
        assert manager.get(session.session_id) is session

    def test_idle_ttl_flags_abandoned_live_sessions(self, hard_classifier):
        broker = MicroBatchBroker(hard_classifier)
        manager = SessionManager(broker, max_workers=1, idle_ttl=10.0)
        image, label = _hard_job(hard_classifier)
        session = manager.create(FixedSketchAttack(), image, label, budget=100000)
        swept = manager.reap(now=time.time() + 100.0)
        assert swept == {"reaped": 0, "abandoned": 1}
        assert session.cancel_requested
        # the driver then parks it at its (first) boundary
        manager.drive(session)
        assert session.state == CANCELLED

    def test_tombstone_set_is_bounded(self, hard_classifier):
        manager, _ = self._finished_manager(hard_classifier)
        with manager._lock:
            manager._reaped_ids.extend(
                f"ghost-{i}" for i in range(DEFAULT_TOMBSTONES + 50)
            )
        manager.reap(now=time.time())
        with manager._lock:
            assert len(manager._reaped_ids) == DEFAULT_TOMBSTONES
        assert not manager.was_reaped("ghost-0")  # oldest aged out first

    def test_ttl_validation(self, hard_classifier):
        broker = MicroBatchBroker(hard_classifier)
        with pytest.raises(ValueError):
            SessionManager(broker, session_ttl=0)
        with pytest.raises(ValueError):
            SessionManager(broker, idle_ttl=-1)
        manager = SessionManager(broker)
        with pytest.raises(ValueError):
            manager.start_reaper(interval=0)


class TestOverloadPolicy:
    def test_disabled_policy_never_sheds(self):
        policy = OverloadPolicy()
        assert policy.should_shed(10**6, 10**6) is None
        assert policy.stats()["shed"] == 0

    def test_queue_depth_watermark(self):
        policy = OverloadPolicy(max_queue_depth=8, retry_after=2.5)
        assert policy.should_shed(7, 0) is None
        reason = policy.should_shed(8, 0)
        assert reason is not None and "queue depth" in reason
        assert policy.stats() == {
            "max_queue_depth": 8,
            "max_active": None,
            "retry_after": 2.5,
            "shed": 1,
        }

    def test_active_sessions_watermark(self):
        policy = OverloadPolicy(max_active=3)
        assert policy.should_shed(0, 2) is None
        assert policy.should_shed(0, 3) is not None
        assert policy.shed == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            OverloadPolicy(max_queue_depth=0)
        with pytest.raises(ValueError):
            OverloadPolicy(max_active=0)
        with pytest.raises(ValueError):
            OverloadPolicy(retry_after=0)


class TestProtocolDeadline:
    def _payload(self, **extra):
        image = np.random.default_rng(0).random((4, 4, 3))
        return {
            "attack": "fixed",
            "image": image.tolist(),
            "true_class": 0,
            **extra,
        }

    def test_deadline_decoded(self):
        request = decode_attack_request(self._payload(deadline_seconds=2.5))
        assert request.deadline_seconds == 2.5

    def test_deadline_optional(self):
        request = decode_attack_request(self._payload())
        assert request.deadline_seconds is None

    @pytest.mark.parametrize(
        "bad", [0, -1, True, "soon", float("nan"), float("inf"), [1]]
    )
    def test_bad_deadlines_rejected(self, bad):
        with pytest.raises(ProtocolError):
            decode_attack_request(self._payload(deadline_seconds=bad))


class TestServerLifecycle:
    """handle_* level checks; no sockets needed."""

    def _server(self, **overrides):
        settings = dict(
            port=0, height=6, width=6, num_classes=3, seed=1,
            rate=10000.0, burst=1000.0,
        )
        settings.update(overrides)
        server = AttackServer(ServeConfig(**settings))
        server.broker.start()
        return server

    def _submit_body(self, server, image_seed=HARD_IMAGE_SEEDS[0], **extra):
        image = np.random.default_rng(image_seed).random((6, 6, 3))
        return json.dumps(
            {
                "attack": "fixed",
                "image": image.tolist(),
                "true_class": int(np.argmax(server.classifier(image))),
                "budget": 100000,
                **extra,
            }
        ).encode()

    def test_delete_cancels_then_is_idempotent(self):
        server = self._server(latency=0.002)
        try:
            status, accepted = server.handle_submit(
                self._submit_body(server), client="t"
            )
            assert status == 202
            session = server.sessions.get(accepted["id"])
            deadline = time.monotonic() + 30
            while session.queries < 3 and time.monotonic() < deadline:
                time.sleep(0.002)
            status, payload = server.handle_cancel(accepted["id"])
            assert status == 202 and payload["cancel_requested"] is True
            deadline = time.monotonic() + 30
            while session.state not in (CANCELLED,) and time.monotonic() < deadline:
                time.sleep(0.002)
            assert session.state == CANCELLED
            # terminal now: DELETE converges to 200 with the final status
            status, payload = server.handle_cancel(accepted["id"])
            assert status == 200 and payload["state"] == CANCELLED
            assert payload["result"]["queries"] == payload["queries"]
            assert server.handle_cancel("s404")[0] == 404
        finally:
            server.stop()

    def test_deleted_sparse_rs_session_carries_its_result(self):
        """A cancelled Sparse-RS session reports its budget-k result, with
        ``result.queries`` equal to the session's charged count."""
        server = self._server(latency=0.002)
        try:
            status, accepted = server.handle_submit(
                self._submit_body(server, attack="sparse-rs"), client="t"
            )
            assert status == 202
            session = server.sessions.get(accepted["id"])
            deadline = time.monotonic() + 30
            while session.queries < 3 and time.monotonic() < deadline:
                time.sleep(0.002)
            assert server.handle_cancel(accepted["id"])[0] == 202
            deadline = time.monotonic() + 30
            while session.state != CANCELLED and time.monotonic() < deadline:
                time.sleep(0.002)
            status, payload = server.handle_get_session(accepted["id"])
            assert status == 200 and payload["state"] == CANCELLED
            result = payload.get("result")
            assert result is not None, payload
            assert result["success"] is False
            assert result["queries"] == payload["queries"] >= 3
        finally:
            server.stop()

    def test_deadline_over_max_is_400_and_default_applies(self):
        server = self._server(default_deadline=15.0, max_deadline=20.0)
        try:
            status, payload = server.handle_submit(
                self._submit_body(server, deadline_seconds=21.0), client="t"
            )
            assert status == 400 and "maximum" in payload["error"]
            # the rejected request must not leak its admission slot
            assert server.admission.active == 0
            status, accepted = server.handle_submit(
                self._submit_body(server), client="t"
            )
            assert status == 202
            session = server.sessions.get(accepted["id"])
            assert session.deadline_seconds == 15.0
        finally:
            server.stop()

    def test_duplicate_session_id_releases_admission_slot(self):
        server = self._server()
        try:
            status, _ = server.handle_submit(
                self._submit_body(server, budget=4), client="t", session_id="dup"
            )
            assert status == 202
            status, payload = server.handle_submit(
                self._submit_body(server, budget=4), client="t", session_id="dup"
            )
            assert status == 409
            deadline = time.monotonic() + 30
            while server.admission.active and time.monotonic() < deadline:
                time.sleep(0.002)
            # one slot from the 202 (released when its driver finished),
            # zero leaked by the 409
            assert server.admission.active == 0
        finally:
            server.stop()

    def test_overload_shed_is_503_with_retry_after(self):
        server = self._server(
            latency=0.005, shed_sessions=1, shed_retry_after=3.0
        )
        try:
            status, accepted = server.handle_submit(
                self._submit_body(server), client="t"
            )
            assert status == 202
            status, payload = server.handle_submit(
                self._submit_body(server, image_seed=HARD_IMAGE_SEEDS[1]),
                client="t",
            )
            assert status == 503
            assert payload["retry_after"] == 3.0
            assert "overloaded" in payload["error"]
            metrics = server.handle_metrics()[1]
            assert metrics["lifecycle"]["shed"] == 1
            assert metrics["overload"]["max_active"] == 1
            server.handle_cancel(accepted["id"])
        finally:
            server.stop()

    def test_sweep_read_does_not_defer_the_idle_reaper(self):
        """A read carrying SWEEP_HEADER (the cluster router's terminal
        sweep) answers like a poll but leaves the idle clock alone; a
        client poll, forwarded by the router or not, still touches it."""
        server = self._server()
        try:
            status, accepted = server.handle_submit(
                self._submit_body(server, budget=4), client="t"
            )
            assert status == 202
            session = server.sessions.get(accepted["id"])
            session.last_polled_at -= 100.0
            stale = session.last_polled_at
            path = f"/attacks/{accepted['id']}"
            sweep = {"x-client-id": "router", SWEEP_HEADER.lower(): "1"}
            assert server.http_route("GET", path, sweep, b"")[0] == 200
            assert session.last_polled_at == stale
            poll = {"x-client-id": "router", "x-session-id": accepted["id"]}
            assert server.http_route("GET", path, poll, b"")[0] == 200
            assert session.last_polled_at > stale
        finally:
            server.stop()

    def test_reaped_session_polls_410(self):
        server = self._server(session_ttl=5.0)
        try:
            status, accepted = server.handle_submit(
                self._submit_body(server, budget=4), client="t"
            )
            assert status == 202
            session = server.sessions.get(accepted["id"])
            deadline = time.monotonic() + 30
            while session.state != DONE and time.monotonic() < deadline:
                time.sleep(0.002)
            server.sessions.reap(now=time.time() + 100.0)
            status, payload = server.handle_get_session(accepted["id"])
            assert status == 410 and "reaped" in payload["error"]
            status, payload = server.handle_cancel(accepted["id"])
            assert status == 410
            assert server.handle_metrics()[1]["lifecycle"]["reaped"] == 1
        finally:
            server.stop()


@pytest.mark.slow
class TestLifecycleOverHTTP:
    """The real socket path: DELETE verb routing and Retry-After headers."""

    def test_delete_and_retry_after_header(self):
        config = ServeConfig(
            port=0, height=6, width=6, num_classes=3, seed=1,
            latency=0.002, rate=10000.0, burst=1000.0,
            shed_sessions=1, shed_retry_after=2.0,
        )
        with ServerHandle(config) as handle:
            host, port = handle.address
            base = f"http://{host}:{port}"
            image = np.random.default_rng(HARD_IMAGE_SEEDS[0]).random((6, 6, 3))
            body = json.dumps(
                {
                    "attack": "fixed",
                    "image": image.tolist(),
                    "true_class": int(
                        np.argmax(handle.server.classifier(image))
                    ),
                    "budget": 100000,
                }
            ).encode()
            request = urllib.request.Request(
                base + "/attacks", data=body,
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                accepted = json.load(response)
            # a second submission crosses the active-session watermark
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    urllib.request.Request(
                        base + "/attacks", data=body,
                        headers={"Content-Type": "application/json"},
                    ),
                    timeout=10,
                )
            assert excinfo.value.code == 503
            assert excinfo.value.headers["Retry-After"] == "2.0"
            excinfo.value.close()
            delete = urllib.request.Request(
                f"{base}/attacks/{accepted['id']}", method="DELETE"
            )
            with urllib.request.urlopen(delete, timeout=10) as response:
                assert response.status in (200, 202)
            deadline = time.monotonic() + 30
            final = None
            while time.monotonic() < deadline:
                with urllib.request.urlopen(
                    f"{base}/attacks/{accepted['id']}", timeout=10
                ) as response:
                    final = json.load(response)
                if final["state"] == "cancelled":
                    break
                time.sleep(0.02)
            assert final is not None and final["state"] == "cancelled"
            assert final["result"]["queries"] == final["queries"]
