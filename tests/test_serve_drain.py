"""Graceful serve shutdown: drain, 503 gate, persist, restore, SIGTERM.

In-process tests drive :class:`AttackServer` directly (the broker is
slowed so a big-budget session is reliably in flight when the drain
lands); the slow-marked test exercises the real signal path by spawning
``python -m repro.serve`` and SIGTERM-ing it mid-session.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

import repro
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.events import RunLog
from repro.serve.protocol import decode_attack_request
from repro.serve.server import AttackServer, ServeConfig
from repro.serve.sessions import SUSPENDED


#: ``default_rng(1)`` yields a 6x6 image the fixed-sketch attack never
#: cracks: it always runs its full 288-query pair space, so a session
#: attacking it is long-lived enough to drain mid-flight.
HARD_SEED = 1
HARD_QUERIES = 288


def _hard_request(server):
    image = np.random.default_rng(HARD_SEED).random((6, 6, 3))
    label = int(np.argmax(server.classifier(image)))
    return {
        "attack": "fixed",
        "image": image.tolist(),
        "true_class": label,
        "budget": 100000,
    }


def _slow_broker(server, delay=0.01):
    """Throttle the broker's model so sessions stay in flight."""
    real = server.broker.classifier

    def slow(image):
        time.sleep(delay)
        return real(image)

    server.broker.classifier = slow


def _config(tmp_path, **overrides):
    settings = dict(
        height=6, width=6, num_classes=3, seed=1, max_wait=0.001,
        checkpoint=str(tmp_path),
    )
    settings.update(overrides)
    return ServeConfig(**settings)


def _submit(server, payload, client="c1"):
    return server.handle_submit(json.dumps(payload).encode(), client)


def _golden_queries(server, payload):
    request = decode_attack_request(payload)
    result = request.attack.attack(
        server.classifier, request.image, request.true_class,
        budget=request.budget,
    )
    return result.queries


class TestDrain:
    def test_drain_suspends_and_persists_open_session(self, tmp_path):
        server = AttackServer(_config(tmp_path))
        _slow_broker(server)
        server.broker.start()
        payload = _hard_request(server)
        status, accepted = _submit(server, payload)
        assert status == 202
        time.sleep(0.05)  # let the driver pose a few queries

        summary = server.drain_and_stop()
        assert summary == {"open": 1, "persisted": 1, "unpersistable": 0}
        session = server.sessions.get(accepted["id"])
        assert session.state == SUSPENDED
        assert 0 < session.queries < HARD_QUERIES

        records, truncated = CheckpointStore(str(tmp_path)).records()
        assert truncated is False
        (record,) = records
        assert record["kind"] == "session"
        assert record["id"] == accepted["id"]
        assert record["spec"] == payload

    def test_retired_session_drops_its_spec_open_one_persists_it(self, tmp_path):
        server = AttackServer(_config(tmp_path))
        _slow_broker(server)
        server.broker.start()
        payload = _hard_request(server)
        request = decode_attack_request({**payload, "budget": 3})
        finished = server.sessions.create(
            request.attack, request.image, request.true_class,
            budget=request.budget, spec={**payload, "budget": 3},
        )
        server.sessions.drive(finished)  # runs to its budget, then retires
        # only a drain reads a spec, and only an open session's
        assert finished.spec is None
        open_id = _submit(server, payload)[1]["id"]
        time.sleep(0.05)  # let the driver pose a few queries
        assert server.drain_and_stop()["persisted"] == 1
        assert server.sessions.get(open_id).spec == payload
        (record,) = CheckpointStore(str(tmp_path)).records()[0]
        assert (record["id"], record["spec"]) == (open_id, payload)

    def test_draining_server_rejects_submissions_with_503(self, tmp_path):
        server = AttackServer(_config(tmp_path))
        _slow_broker(server)
        server.broker.start()
        payload = _hard_request(server)
        assert _submit(server, payload)[0] == 202
        server.draining = True
        status, body = _submit(server, payload)
        assert status == 503
        assert "draining" in body["error"]
        server.drain_and_stop()

    def test_drain_with_no_open_sessions_is_clean(self, tmp_path):
        server = AttackServer(_config(tmp_path))
        server.broker.start()
        summary = server.drain_and_stop()
        assert summary == {"open": 0, "persisted": 0, "unpersistable": 0}
        assert CheckpointStore(str(tmp_path)).records() == ([], False)

    def test_drain_without_checkpoint_still_finishes_in_flight(self, tmp_path):
        server = AttackServer(_config(tmp_path, checkpoint=None))
        _slow_broker(server)
        server.broker.start()
        assert _submit(server, _hard_request(server))[0] == 202
        time.sleep(0.05)
        summary = server.drain_and_stop()
        assert summary["open"] == 1
        assert summary["persisted"] == 0

    def test_drain_counts_unpersistable_sessions(self, tmp_path):
        server = AttackServer(_config(tmp_path))
        _slow_broker(server)
        server.broker.start()
        payload = _hard_request(server)
        request = decode_attack_request(payload)
        # programmatic session without a wire spec
        session = server.sessions.create(
            request.attack, request.image, request.true_class,
            budget=request.budget,
        )
        server.sessions.start(session)
        time.sleep(0.05)
        summary = server.drain_and_stop()
        assert summary == {"open": 1, "persisted": 0, "unpersistable": 1}


class TestRestore:
    def test_restored_session_finishes_with_golden_query_count(self, tmp_path):
        server = AttackServer(_config(tmp_path))
        _slow_broker(server)
        server.broker.start()
        payload = _hard_request(server)
        _, accepted = _submit(server, payload)
        time.sleep(0.05)
        server.drain_and_stop()
        golden = _golden_queries(server, payload)
        assert golden == HARD_QUERIES

        second = AttackServer(_config(tmp_path, resume=True))
        second.run_log = RunLog()  # the default NullRunLog discards events
        second.start()
        try:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                session = second.sessions.get(accepted["id"])
                assert session is not None, "restored session lost its id"
                if session.state in ("done", "failed"):
                    break
                time.sleep(0.02)
            assert session.state == "done"
            assert session.queries == golden
            # consumed records are cleared; next drain re-persists
            assert second.checkpoint.records() == ([], False)
            restores = second.run_log.of_type("session_restored")
            assert [e["session"] for e in restores] == [accepted["id"]]
        finally:
            second.stop()

    def test_restore_without_records_is_a_noop(self, tmp_path):
        server = AttackServer(_config(tmp_path, resume=True))
        server.start()
        assert server.sessions.list_sessions() == []
        server.stop()

    def test_restore_refuses_checkpoint_from_other_model(self, tmp_path):
        server = AttackServer(_config(tmp_path))
        _slow_broker(server)
        server.broker.start()
        _submit(server, _hard_request(server))
        time.sleep(0.05)
        server.drain_and_stop()

        from repro.runtime.checkpoint import CheckpointMismatch

        mismatched = AttackServer(_config(tmp_path, seed=2, resume=True))
        with pytest.raises(CheckpointMismatch):
            mismatched.start()

    def test_restore_refuses_corrupt_manifest(self, tmp_path):
        """A manifest that is not JSON is a hard, explicit refusal."""
        server = AttackServer(_config(tmp_path))
        _slow_broker(server)
        server.broker.start()
        _submit(server, _hard_request(server))
        time.sleep(0.05)
        server.drain_and_stop()
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text('{"kind": "serve", trailing garbage')

        from repro.runtime.checkpoint import CheckpointError

        corrupted = AttackServer(_config(tmp_path, resume=True))
        with pytest.raises(CheckpointError):
            corrupted.start()
        corrupted.stop()

    def test_mismatch_refusal_restores_nothing(self, tmp_path):
        """A refused resume is all-or-nothing: no partial restore, and
        the checkpoint records stay on disk for the right server."""
        server = AttackServer(_config(tmp_path))
        _slow_broker(server)
        server.broker.start()
        _submit(server, _hard_request(server))
        time.sleep(0.05)
        server.drain_and_stop()

        from repro.runtime.checkpoint import CheckpointMismatch

        mismatched = AttackServer(_config(tmp_path, seed=2, resume=True))
        with pytest.raises(CheckpointMismatch):
            mismatched.start()
        assert mismatched.sessions.list_sessions() == []
        mismatched.stop()
        # the records were not consumed by the refused resume
        records, truncated = CheckpointStore(str(tmp_path)).records()
        assert truncated is False
        assert len(records) == 1 and records[0]["kind"] == "session"

    def test_bad_spec_is_skipped_not_fatal(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        server = AttackServer(_config(tmp_path))
        store.write_manifest(server.config.manifest())
        store.append(
            {
                "kind": "session",
                "id": "s9",
                "client": "c1",
                "queries": 3,
                "state": SUSPENDED,
                "spec": {"attack": "no-such-attack"},
            }
        )
        resuming = AttackServer(_config(tmp_path, resume=True))
        resuming.run_log = RunLog()
        resuming.start()
        try:
            assert resuming.sessions.get("s9") is None
            failures = resuming.run_log.of_type("session_restore_failed")
            assert [e["session"] for e in failures] == ["s9"]
        finally:
            resuming.stop()


def _free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _get_json(url, timeout=5.0):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, json.load(response)


def _wait_healthy(base, deadline=20.0):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        try:
            status, _ = _get_json(base + "/healthz", timeout=1.0)
            if status == 200:
                return
        except (urllib.error.URLError, ConnectionError, OSError):
            time.sleep(0.05)
    raise AssertionError("server did not become healthy")


def _serve_argv(port, checkpoint, max_wait, resume=False):
    # --latency charges real per-image model time: with batch-native
    # stepping a session no longer pays the broker's max_wait per query,
    # so queue throttling alone would let the hard session finish before
    # the signal lands.
    argv = [
        sys.executable, "-m", "repro.serve",
        "--port", str(port),
        "--height", "6", "--width", "6", "--classes", "3", "--seed", "1",
        "--max-wait", str(max_wait),
        "--latency", "0.01",
        "--checkpoint", checkpoint,
    ]
    if resume:
        argv.append("--resume")
    return argv


@pytest.mark.slow
class TestSigtermDrain:
    def test_sigterm_drains_persists_and_exits_zero(self, tmp_path):
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        checkpoint = str(tmp_path / "ckpt")

        # Phase 1: serve with a generous broker wait so the hard session
        # is still mid-flight (~50ms/query) when SIGTERM arrives.
        port = _free_port()
        child = subprocess.Popen(
            _serve_argv(port, checkpoint, max_wait=0.05),
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        base = f"http://127.0.0.1:{port}"
        try:
            _wait_healthy(base)
            image = np.random.default_rng(HARD_SEED).random((6, 6, 3))
            # an identical local copy of the served toy model gives us
            # the true label without a wire round trip
            from repro.classifier.toy import SmoothLinearClassifier

            classifier = SmoothLinearClassifier(
                image_shape=(6, 6, 3), num_classes=3, seed=1
            )
            payload = {
                "attack": "fixed",
                "image": image.tolist(),
                "true_class": int(np.argmax(classifier(image))),
                "budget": 100000,
            }
            request = urllib.request.Request(
                base + "/attacks",
                data=json.dumps(payload).encode(),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=5) as response:
                accepted = json.load(response)
            assert response.status == 202
            time.sleep(0.5)  # a handful of 50ms queries in
            child.send_signal(signal.SIGTERM)
            stdout, _ = child.communicate(timeout=60)
        finally:
            if child.poll() is None:
                child.kill()
                child.communicate()
        assert child.returncode == 0, stdout
        assert "drained; 1/1 open sessions persisted" in stdout

        records, truncated = CheckpointStore(checkpoint).records()
        assert truncated is False
        (record,) = records
        assert record["id"] == accepted["id"]

        # Phase 2: resume at full speed; the original session id finishes
        # with the query count an uninterrupted run would have charged.
        port2 = _free_port()
        child2 = subprocess.Popen(
            _serve_argv(port2, checkpoint, max_wait=0.001, resume=True),
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        base2 = f"http://127.0.0.1:{port2}"
        try:
            _wait_healthy(base2)
            deadline = time.monotonic() + 60.0
            final = None
            while time.monotonic() < deadline:
                _, final = _get_json(base2 + f"/attacks/{accepted['id']}")
                if final["state"] in ("done", "failed"):
                    break
                time.sleep(0.05)
            assert final is not None and final["state"] == "done"
            assert final["queries"] == HARD_QUERIES
            child2.send_signal(signal.SIGTERM)
            stdout2, _ = child2.communicate(timeout=60)
            assert child2.returncode == 0, stdout2
        finally:
            if child2.poll() is None:
                child2.kill()
                child2.communicate()
