"""Tests for :mod:`repro.cluster` -- the sharded multi-worker serve tier.

The fast half exercises the pure machinery in-process: consistent
hashing, metrics aggregation, the ledger's open-session algebra, config
validation, and the router's routing table without any worker processes.
The slow half (``-m slow``) boots real tiers -- ``repro-serve``
subprocesses behind the threaded router -- and pins the subsystem's load
-bearing invariants: end-to-end attack completion across replicas,
worker-kill rebalance with paper-faithful query counts (differentially
checked via :func:`repro.testkit.kill.kill_worker_and_rebalance`),
crashed-worker restart, and whole-tier SIGTERM drain with durable
resume through the router ledger.
"""

import json
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.cluster.config import ClusterConfig, worker_argv
from repro.cluster.hashing import DEFAULT_VNODES, HashRing
from repro.cluster.metrics import (
    aggregate_worker_metrics,
    merge_cache_stats,
    merge_histograms,
)
from repro.cluster.router import ClusterRouter
from repro.runtime.checkpoint import (
    CheckpointMismatch,
    CheckpointStore,
    open_sessions_from_records,
)
from repro.serve.server import ServeConfig


def _seed(router, entry):
    """Put ``entry`` in the router's session table as an open session."""
    router._sessions[entry.session_id] = router._open[entry.session_id] = entry
    return entry


def _unowned(router):
    """Ids of the router's open sessions awaiting (re)placement."""
    return [sid for sid, entry in router._open.items() if entry.worker is None]


class TestHashRing:
    def test_assignment_is_deterministic(self):
        one, two = HashRing(), HashRing()
        for member in ("w0", "w1", "w2"):
            one.add(member)
            two.add(member)
        keys = [f"c{i}" for i in range(200)]
        assert [one.assign(k) for k in keys] == [two.assign(k) for k in keys]

    def test_assignment_order_independent(self):
        one, two = HashRing(), HashRing()
        for member in ("w0", "w1", "w2"):
            one.add(member)
        for member in ("w2", "w0", "w1"):
            two.add(member)
        keys = [f"c{i}" for i in range(200)]
        assert [one.assign(k) for k in keys] == [two.assign(k) for k in keys]

    def test_removal_only_remaps_the_dead_members_keys(self):
        ring = HashRing()
        for member in ("w0", "w1", "w2", "w3"):
            ring.add(member)
        keys = [f"c{i}" for i in range(500)]
        before = {k: ring.assign(k) for k in keys}
        ring.remove("w2")
        after = {k: ring.assign(k) for k in keys}
        for key in keys:
            if before[key] != "w2":
                assert after[key] == before[key]  # survivors keep theirs
            else:
                assert after[key] != "w2"  # orphans land elsewhere

    def test_spread_is_roughly_balanced(self):
        ring = HashRing()
        for member in ("w0", "w1", "w2", "w3"):
            ring.add(member)
        spread = ring.spread(f"c{i}" for i in range(2000))
        assert sum(spread.values()) == 2000
        for member, count in spread.items():
            assert count > 200, f"{member} owns only {count}/2000 keys"

    def test_add_and_remove_are_idempotent(self):
        ring = HashRing()
        ring.add("w0")
        points = len(ring._points)
        ring.add("w0")
        assert len(ring._points) == points
        ring.remove("w0")
        ring.remove("w0")
        assert len(ring) == 0

    def test_empty_ring_assigns_none(self):
        assert HashRing().assign("c1") is None

    def test_membership_protocol(self):
        ring = HashRing(vnodes=8)
        ring.add("w0")
        assert "w0" in ring and "w1" not in ring
        assert ring.members() == ["w0"]
        assert len(ring) == 1

    def test_vnodes_validated(self):
        with pytest.raises(ValueError):
            HashRing(vnodes=0)
        assert HashRing().vnodes == DEFAULT_VNODES


class TestMetricsMerge:
    def test_histograms_merge_bucketwise(self):
        a = {"count": 4, "mean": 2.0, "max": 4.0, "buckets": {"<=2": 3, "<=4": 1}}
        b = {"count": 6, "mean": 8.0, "max": 16.0, "buckets": {"<=4": 2, "<=16": 4}}
        merged = merge_histograms([a, b])
        assert merged["count"] == 10
        assert merged["max"] == 16.0
        assert merged["buckets"] == {"<=2": 3, "<=4": 3, "<=16": 4}
        # mean from totals (4*2 + 6*8)/10, not the average of means
        assert merged["mean"] == pytest.approx(5.6)

    def test_empty_histograms_merge_to_zero(self):
        merged = merge_histograms([{}, {}])
        assert merged["count"] == 0 and merged["mean"] == 0.0

    def test_cache_rollup_sums_hits_across_replicas(self):
        stats = merge_cache_stats(
            {
                "w0": {"hits": 30, "misses": 70},
                "w1": {"hits": 10, "misses": 90},
                "w2": None,
            }
        )
        assert stats["cluster"] == {
            "hits": 40,
            "misses": 160,
            "hit_rate": pytest.approx(0.2),
        }
        assert stats["per_worker"]["w2"] is None

    def test_cache_rollup_without_any_scrape_is_none(self):
        assert merge_cache_stats({"w0": None})["cluster"] is None

    def test_aggregate_reports_unscraped_workers(self):
        payload = {
            "broker": {
                "submitted": 5,
                "flushes": 2,
                "coalesced_duplicates": 0,
                "rejected": 0,
                "batch_sizes": {"count": 2, "mean": 2.5, "max": 3, "buckets": {}},
                "model_batch_sizes": {"count": 2, "mean": 2.5, "max": 3,
                                      "buckets": {}},
                "cache": {"hits": 1, "misses": 4},
            },
            "sessions": {"states": {"done": 1, "running": 2}},
            "sessions_in_flight": 2,
            "broker_queue_depth": 7,
        }
        rollup = aggregate_worker_metrics({"w0": payload, "w1": None})
        assert rollup["unscraped"] == ["w1"]
        assert rollup["broker"]["submitted"] == 5
        assert rollup["sessions_in_flight"] == 2
        assert rollup["broker_queue_depth"] == 7
        assert rollup["session_states"] == {"done": 1, "running": 2}


class TestLedgerAlgebra:
    def test_done_marker_closes_a_session(self):
        records = [
            {"kind": "session", "id": "c1", "spec": {"a": 1}},
            {"kind": "session", "id": "c2", "spec": {"a": 2}},
            {"kind": "session_done", "id": "c1"},
        ]
        open_sessions = open_sessions_from_records(records)
        assert list(open_sessions) == ["c2"]

    def test_later_session_record_wins(self):
        records = [
            {"kind": "session", "id": "c1", "spec": {"v": "old"}},
            {"kind": "session", "id": "c1", "spec": {"v": "rebalanced"}},
        ]
        assert open_sessions_from_records(records)["c1"]["spec"] == {
            "v": "rebalanced"
        }

    def test_unknown_kinds_ignored(self):
        records = [{"kind": "noise"}, {"kind": "session_done", "id": "ghost"}]
        assert open_sessions_from_records(records) == {}


class TestClusterConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(workers=0)
        with pytest.raises(ValueError):
            ClusterConfig(heartbeat=0)
        with pytest.raises(ValueError):
            ClusterConfig(heartbeat_misses=0)
        with pytest.raises(ValueError):
            ClusterConfig(max_restarts=-1)
        with pytest.raises(ValueError):
            ClusterConfig(backoff=-0.1)

    def test_worker_argv_is_a_repro_serve_invocation(self):
        config = ClusterConfig(serve=ServeConfig(
            model="toy", height=6, width=6, num_classes=3, seed=1,
            latency=0.02, freeze=True, dtype="float32",
        ))
        argv = worker_argv(config, 9999)
        assert argv[1:3] == ["-m", "repro.serve"]
        assert "--port" in argv and "9999" in argv
        assert "--latency" in argv and "0.02" in argv
        assert "--freeze" in argv
        assert argv[argv.index("--dtype") + 1] == "float32"
        # workers never inherit the router's checkpoint or resume flags
        assert "--checkpoint" not in argv and "--resume" not in argv

    def test_manifest_pins_model_identity(self):
        manifest = ClusterConfig(serve=ServeConfig(seed=3)).manifest()
        assert manifest["kind"] == "cluster"
        assert manifest["seed"] == 3


class TestRouterTable:
    """Router logic that needs no worker processes."""

    def test_submit_with_no_live_workers_is_503(self):
        router = ClusterRouter(ClusterConfig(workers=2))
        status, payload = router.submit(b"{}", client="t")
        assert status == 503
        assert "no live workers" in payload["error"]

    def test_submit_rejects_bad_json(self):
        router = ClusterRouter(ClusterConfig(workers=1))
        router.ring.add("w0")
        status, payload = router.submit(b"not json", client="t")
        assert status == 400
        status, payload = router.submit(b"[1,2]", client="t")
        assert status == 400

    def test_draining_router_sheds_submissions(self):
        router = ClusterRouter(ClusterConfig(workers=1))
        router.draining = True
        status, payload = router.submit(b"{}", client="t")
        assert status == 503 and "draining" in payload["error"]
        assert router.healthz() == (503, {"status": "draining"})

    def test_unknown_session_is_404_and_unknown_path_routes(self):
        router = ClusterRouter(ClusterConfig(workers=1))
        assert router.get_session("c404")[0] == 404
        assert router.route("GET", "/nope", b"", "t")[0] == 404
        assert router.route("DELETE", "/attacks", b"", "t")[0] == 405

    def test_generated_ids_are_sequential_and_resume_safe(self):
        router = ClusterRouter(ClusterConfig(workers=1))
        assert router._generate_id() == "c1"
        router._note_restored_id("c41")
        assert router._generate_id() == "c42"
        router._note_restored_id("s9")  # worker-local ids never collide
        assert router._generate_id() == "c43"

    def test_ledger_manifest_guard(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.write_manifest(ClusterConfig(serve=ServeConfig(seed=1)).manifest())
        store.close()
        router = ClusterRouter(
            ClusterConfig(
                workers=1, serve=ServeConfig(seed=2), checkpoint=str(tmp_path)
            )
        )
        with pytest.raises(CheckpointMismatch):
            router.ledger.reconcile_manifest(router.config.manifest())


# ----------------------------------------------------------------------
# slow: real tiers with worker subprocesses
# ----------------------------------------------------------------------


def _post_json(base, path, payload, headers=None):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json", **(headers or {})},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.load(response)


def _get_json(base, path):
    with urllib.request.urlopen(base + path, timeout=10) as response:
        return response.status, json.load(response)


def _wait_done(base, session_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            _, payload = _get_json(base, f"/attacks/{session_id}")
        except urllib.error.HTTPError:
            time.sleep(0.1)
            continue
        if payload["state"] in ("done", "failed"):
            return payload
        time.sleep(0.05)
    raise AssertionError(f"session {session_id} never finished")


def _tier_config(latency=0.0, **overrides):
    settings = dict(workers=2, port=0, heartbeat=0.2, backoff=0.2)
    settings.update(overrides)
    serve = ServeConfig(
        height=6, width=6, num_classes=3, seed=1, latency=latency
    )
    return ClusterConfig(serve=serve, **settings)


@pytest.fixture
def toy_spec():
    from repro.classifier.toy import SmoothLinearClassifier

    classifier = SmoothLinearClassifier(
        image_shape=(6, 6, 3), num_classes=3, seed=1
    )

    def build(seed):
        image = np.random.default_rng(seed).random((6, 6, 3))
        return {
            "attack": "fixed",
            "image": image.tolist(),
            "true_class": int(np.argmax(classifier(image))),
            "budget": 100000,
        }

    return build


@pytest.mark.slow
class TestTierEndToEnd:
    def test_sessions_complete_across_replicas(self, toy_spec):
        from repro.cluster.router import ClusterHandle

        with ClusterHandle(_tier_config()) as tier:
            base = "http://%s:%d" % tier.address
            status, health = _get_json(base, "/healthz")
            assert status == 200
            assert health["workers"] == {"live": 2, "total": 2}

            accepted = []
            for seed in range(6):
                status, payload = _post_json(base, "/attacks", toy_spec(seed))
                assert status == 202
                assert payload["id"].startswith("c")
                accepted.append(payload)
            # the ring spreads deterministic ids over both replicas
            owners = {payload["worker"] for payload in accepted}
            assert owners == {"w0", "w1"}

            for payload in accepted:
                final = _wait_done(base, payload["id"])
                assert final["state"] == "done"
                assert final["worker"] == payload["worker"]  # sticky

            _, listing = _get_json(base, "/attacks")
            assert len(listing["sessions"]) == 6
            assert all(entry["done"] for entry in listing["sessions"])

            _, metrics = _get_json(base, "/metrics")
            assert metrics["cluster"]["routed"] == 6
            assert metrics["cluster"]["live"] == 2
            assert metrics["broker"]["submitted"] > 0
            assert metrics["unscraped"] == []
            assert metrics["cache"]["cluster"] is not None
        # exiting the context drains the tier; both workers exit cleanly
        assert all(
            worker.proc.returncode == 0 for worker in tier.router.workers
        )

    def test_worker_kill_rebalances_with_golden_query_count(self):
        from repro.testkit.kill import kill_worker_and_rebalance

        verdict = kill_worker_and_rebalance(workers=2)
        assert verdict["identical"], verdict
        assert verdict["finished_on"] != verdict["submitted_on"]
        assert verdict["deaths"] == 1
        assert verdict["rebalanced_sessions"] == 1

    def test_killed_worker_restarts_into_its_slot(self, toy_spec):
        from repro.cluster.router import ClusterHandle

        with ClusterHandle(_tier_config()) as tier:
            base = "http://%s:%d" % tier.address
            victim = tier.router.workers[0]
            old_pid = victim.pid
            victim.kill()
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                _, health = _get_json(base, "/healthz")
                if (
                    health.get("workers", {}).get("live") == 2
                    and victim.pid != old_pid
                ):
                    break
                time.sleep(0.1)
            assert victim.pid != old_pid
            assert victim.restarts == 1
            # the reborn replica serves traffic again
            status, payload = _post_json(base, "/attacks", toy_spec(0))
            assert status == 202
            assert _wait_done(base, payload["id"])["state"] == "done"
            events = tier.router.run_log.of_type("worker_restart")
            assert [e["worker"] for e in events] == [victim.name]

    def test_tier_drain_persists_and_resumes_open_sessions(
        self, tmp_path, toy_spec
    ):
        from repro.cluster.router import ClusterHandle
        from repro.testkit.kill import hard_cluster_spec

        ledger_dir = str(tmp_path / "ledger")
        config = _tier_config(
            workers=2, latency=0.02, checkpoint=ledger_dir
        )
        tier = ClusterHandle(config).start()
        base = "http://%s:%d" % tier.address
        status, accepted = _post_json(base, "/attacks", hard_cluster_spec())
        assert status == 202
        time.sleep(0.5)  # a handful of 20ms queries in
        summary = tier.drain()
        assert summary["open"] == 1
        assert summary["durable"] == 1
        assert all(code == 0 for code in summary["exit_codes"].values())
        assert tier.router.healthz() == (503, {"status": "draining"})

        # the open session is durable in the ledger
        records, truncated = CheckpointStore(ledger_dir).records()
        assert truncated is False
        assert any(
            r["kind"] == "session" and r["id"] == accepted["id"]
            for r in records
        )

        # a restarted tier resumes it and finishes with the golden count
        resumed = ClusterHandle(
            _tier_config(workers=2, checkpoint=ledger_dir, resume=True)
        )
        with resumed:
            base = "http://%s:%d" % resumed.address
            final = _wait_done(base, accepted["id"], timeout=90.0)
            assert final["state"] == "done"
            assert final["result"]["queries"] == 288
            events = resumed.router.run_log.of_type("cluster_resume")
            assert events and events[0]["sessions"] == 1


# ----------------------------------------------------------------------
# fast: rebalance concurrency, terminal sweep, shared-cache config
# ----------------------------------------------------------------------


class TestRebalanceConcurrency:
    """Pin the tick_rebalance single-claim guarantee (PR 9 bugfix)."""

    def _router_with_pending(self, sessions=6):
        from repro.cluster.router import SessionEntry

        router = ClusterRouter(ClusterConfig(workers=1))
        router.ring.add("w0")
        for index in range(sessions):
            session_id = f"c{index + 1}"
            _seed(
                router, SessionEntry(session_id, {"spec": index}, "client", None)
            )
        return router

    def test_concurrent_ticks_never_double_place(self, monkeypatch):
        import threading

        router = self._router_with_pending(sessions=8)
        forwards = {}
        lock = threading.Lock()

        def slow_forward(owner, session_id, spec, client):
            with lock:
                forwards[session_id] = forwards.get(session_id, 0) + 1
            time.sleep(0.01)  # hold the claim across the unlocked window
            return 202, {"id": session_id}

        monkeypatch.setattr(router, "_forward_submit", slow_forward)
        threads = [
            threading.Thread(target=router.tick_rebalance) for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)

        # every session placed exactly once, counted exactly once
        assert sorted(forwards) == [f"c{i + 1}" for i in range(8)]
        assert all(count == 1 for count in forwards.values())
        assert router.rebalanced_sessions == 8
        assert _unowned(router) == []
        assert all(
            entry.worker == "w0" for entry in router._sessions.values()
        )

    def test_failed_placement_requeues_once(self, monkeypatch):
        router = self._router_with_pending(sessions=2)
        monkeypatch.setattr(
            router, "_forward_submit", lambda *a: (503, {"error": "down"})
        )
        placed = router.tick_rebalance()
        assert placed == 0
        assert sorted(_unowned(router)) == ["c1", "c2"]
        assert router.rebalanced_sessions == 0

    def test_ledger_session_record_appended_once(self, monkeypatch, tmp_path):
        import threading

        from repro.cluster.router import SessionEntry

        router = ClusterRouter(
            ClusterConfig(workers=1, checkpoint=str(tmp_path))
        )
        router.ledger.reconcile_manifest(router.config.manifest())
        router.ring.add("w0")
        _seed(router, SessionEntry("c1", {"attack": "fixed"}, None, None))

        def slow_forward(owner, session_id, spec, client):
            time.sleep(0.01)
            return 202, {"id": session_id}

        monkeypatch.setattr(router, "_forward_submit", slow_forward)
        threads = [
            threading.Thread(target=router.tick_rebalance) for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        records, _ = router.ledger.records()
        session_records = [r for r in records if r.get("kind") == "session"]
        assert len(session_records) == 1
        router.ledger.close()


class TestTerminalSweep:
    """Terminal-but-never-polled sessions are reaped (PR 9 bugfix)."""

    def _router_with_live_worker(self, checkpoint=None):
        from repro.cluster.router import SessionEntry
        from repro.cluster.workers import LIVE

        config = ClusterConfig(workers=1)
        if checkpoint:
            config = ClusterConfig(workers=1, checkpoint=checkpoint)
        router = ClusterRouter(config)
        router.workers[0].state = LIVE
        router.ring.add("w0")
        entry = _seed(router, SessionEntry("c1", {"attack": "fixed"}, None, "w0"))
        return router, entry

    def test_sweep_marks_terminal_sessions_done(self, monkeypatch):
        router, entry = self._router_with_live_worker()
        monkeypatch.setattr(
            "repro.cluster.router.http_json",
            lambda *a, **k: (
                200,
                {"state": "done", "result": {"queries": 288}},
            ),
        )
        swept = router.sweep_terminal_sessions()
        assert swept == 1
        assert entry.final is not None
        assert entry.final["result"]["queries"] == 288
        assert entry.final["worker"] == "w0"
        # idempotent: already-done sessions are not re-swept
        assert router.sweep_terminal_sessions() == 0

    def test_sweep_leaves_running_sessions_open(self, monkeypatch):
        router, entry = self._router_with_live_worker()
        monkeypatch.setattr(
            "repro.cluster.router.http_json",
            lambda *a, **k: (200, {"state": "running", "queries": 12}),
        )
        assert router.sweep_terminal_sessions() == 0
        assert entry.final is None

    def test_sweep_closes_ledger_record(self, monkeypatch, tmp_path):
        router, entry = self._router_with_live_worker(
            checkpoint=str(tmp_path)
        )
        router.ledger.reconcile_manifest(router.config.manifest())
        router.ledger.append(
            {"kind": "session", "id": "c1", "client": None, "spec": {}}
        )
        monkeypatch.setattr(
            "repro.cluster.router.http_json",
            lambda *a, **k: (200, {"state": "done", "result": {}}),
        )
        router.sweep_terminal_sessions()
        records, _ = router.ledger.records()
        assert open_sessions_from_records(records) == {}
        router.ledger.close()

    def test_sweep_reads_are_not_client_polls(self, monkeypatch):
        from repro.serve.server import SWEEP_HEADER

        router, entry = self._router_with_live_worker()
        requests = []

        def worker(address, method, path, headers=None, **kwargs):
            requests.append((method, path, headers))
            return 200, {"state": "running", "queries": 12}

        monkeypatch.setattr("repro.cluster.router.http_json", worker)
        router.sweep_terminal_sessions()
        router.get_session("c1")
        assert requests == [
            ("GET", "/attacks/c1", {SWEEP_HEADER: "1"}),  # the sweep's read
            ("GET", "/attacks/c1", None),  # a client poll, forwarded as one
        ]

    def test_supervise_once_sweeps_on_cadence(self, monkeypatch):
        router, entry = self._router_with_live_worker()
        calls = []
        monkeypatch.setattr(
            router, "sweep_terminal_sessions", lambda: calls.append(1)
        )
        # no live processes: neuter the per-worker probes
        monkeypatch.setattr(
            router.workers[0], "process_alive", lambda: True
        )
        monkeypatch.setattr(
            router.workers[0], "healthy", lambda timeout=None: True
        )
        for _ in range(8):
            router.supervise_once()
        assert len(calls) == 2  # every 4th sweep


class TestSessionTable:
    """One table, one ledger: open sessions stay durable, ids never
    collide with the ledger's, and settled sessions age out."""

    def _ledger(self, tmp_path, *records):
        ledger = CheckpointStore(str(tmp_path))
        for record in records:
            ledger.append(record)
        ledger.close()
        return ClusterConfig(workers=1, checkpoint=str(tmp_path), resume=True)

    def test_unplaced_resumed_session_stays_in_the_ledger(
        self, monkeypatch, tmp_path
    ):
        config = self._ledger(
            tmp_path,
            {"kind": "session", "id": "c7", "client": "t", "spec": {}},
        )
        router = ClusterRouter(config)
        router.ring.add("w0")
        monkeypatch.setattr(
            router, "_forward_submit", lambda *a: (429, {"error": "at capacity"})
        )
        assert router.resume_sessions() == 1
        assert _unowned(router) == ["c7"]  # the first placement failed

        def ledger_open():
            records, _ = CheckpointStore(str(tmp_path)).records()
            return sorted(open_sessions_from_records(records))

        assert ledger_open() == ["c7"]  # durable before any placement
        summary = router.drain()
        assert summary["open"] == summary["durable"] == 1
        assert ledger_open() == ["c7"]
        assert ClusterRouter(config).resume_sessions() == 1  # the next --resume

    def test_new_ids_never_inherit_a_ledger_done_marker(
        self, monkeypatch, tmp_path
    ):
        config = self._ledger(
            tmp_path,
            {"kind": "session", "id": "c1", "client": "t", "spec": {}},
            {"kind": "session_done", "id": "c1"},
        )
        router = ClusterRouter(config)
        router.ring.add("w0")
        monkeypatch.setattr(
            router, "_forward_submit", lambda *a: (202, {"id": a[1]})
        )
        assert router.resume_sessions() == 0
        status, accepted = router.submit(b"{}", "t")
        assert status == 202
        router.ledger.close()
        records, _ = CheckpointStore(str(tmp_path)).records()
        assert list(open_sessions_from_records(records)) == [accepted["id"]]

    def test_ids_stay_unique_across_restarts(self, monkeypatch, tmp_path):
        """c1 is left open and c2 settles; a restart settles c1; after a
        second restart the next session must not be issued c2 again."""
        from repro.cluster.workers import LIVE

        def boot(resume):
            router = ClusterRouter(
                ClusterConfig(workers=1, checkpoint=str(tmp_path), resume=resume)
            )
            router.workers[0].state = LIVE
            router.ring.add("w0")
            router._forward_submit = lambda *a: (202, {"id": a[1]})
            if resume:
                router.resume_sessions()
            return router

        monkeypatch.setattr(
            "repro.cluster.router.http_json",
            lambda address, method, path, **kwargs: (200, {"state": "done"}),
        )
        router = boot(resume=False)
        issued = [router.submit(b"{}", "t")[1]["id"] for _ in range(2)]
        assert issued == ["c1", "c2"]
        assert router.get_session("c2")[1]["state"] == "done"
        router.ledger.close()
        router = boot(resume=True)
        assert router.get_session("c1")[1]["state"] == "done"
        router.ledger.close()
        router = boot(resume=True)
        status, accepted = router.submit(b"{}", "t")
        router.ledger.close()
        assert status == 202 and accepted["id"] not in issued

    def test_start_without_resume_keeps_new_ids_off_the_ledger(
        self, monkeypatch, tmp_path
    ):
        config = self._ledger(
            tmp_path,
            {"kind": "session", "id": "c1", "client": "t", "spec": {}},
            {"kind": "session_done", "id": "c1"},
            {"kind": "session", "id": "c2", "client": "t", "spec": {}},
        )
        router = ClusterRouter(ClusterConfig(workers=1, checkpoint=str(tmp_path)))
        worker = router.workers[0]
        monkeypatch.setattr(worker, "spawn", lambda: None)  # no processes
        monkeypatch.setattr(worker, "wait_healthy", lambda timeout: True)
        monkeypatch.setattr(
            router, "_forward_submit", lambda *a: (202, {"id": a[1]})
        )
        router.start()
        status, accepted = router.submit(b"{}", "t")
        assert status == 202 and accepted["id"] == "c3"
        router.ledger.close()
        records, _ = CheckpointStore(str(tmp_path)).records()
        # c2 stays open for a later --resume; the new session is open too
        assert sorted(open_sessions_from_records(records)) == ["c2", "c3"]

    def test_concurrent_answers_settle_each_session_once(
        self, monkeypatch, tmp_path
    ):
        """Polls, DELETEs and a sweep racing on the same sessions: each
        session settles once, and every caller sees that one final."""
        import itertools
        import sys
        import threading

        from repro.cluster.router import SessionEntry
        from repro.cluster.workers import LIVE

        router = ClusterRouter(ClusterConfig(workers=1, checkpoint=str(tmp_path)))
        router.workers[0].state = LIVE
        router.ring.add("w0")
        ids = [f"c{index}" for index in range(1, 129)]
        for session_id in ids:
            _seed(router, SessionEntry(session_id, {}, "t", "w0"))
        replies = itertools.count()  # every worker answer is distinct

        def worker(*args, **kwargs):
            time.sleep(0.001)  # a round trip: other callers run meanwhile
            return 200, {"state": "done", "reply": next(replies)}

        monkeypatch.setattr("repro.cluster.router.http_json", worker)
        seen = {session_id: [] for session_id in ids}

        start = threading.Barrier(7)

        def client(ask):
            start.wait(timeout=30)
            for session_id in ids:
                seen[session_id].append(ask(session_id)[1])

        def sweep():
            start.wait(timeout=30)
            router.sweep_terminal_sessions()

        threads = [
            threading.Thread(target=client, args=(ask,))
            for ask in (router.get_session, router.cancel_session) * 3
        ] + [threading.Thread(target=sweep)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for session_id in ids:
            final = router._sessions[session_id].final
            assert final is not None
            assert all(answer == final for answer in seen[session_id])
        assert sum(router.settled.values()) == len(ids)
        router.ledger.close()
        records, _ = router.ledger.records()
        done = [r["id"] for r in records if r["kind"] == "session_done"]
        assert sorted(done) == sorted(ids)

    def test_settled_sessions_age_out_beyond_the_history(self, monkeypatch):
        from repro.serve.sessions import DEFAULT_HISTORY

        router = ClusterRouter(ClusterConfig(workers=1))
        router.ring.add("w0")
        monkeypatch.setattr(
            router, "_forward_submit", lambda *a: (202, {"id": a[1]})
        )
        monkeypatch.setattr(
            "repro.cluster.router.http_json",
            lambda address, method, path, **k: (
                200, {"id": path.rsplit("/", 1)[-1], "state": "done"},
            ),
        )
        body = json.dumps({"attack": "fixed", "budget": 4}).encode()
        never_polled = router.submit(body, "t")[1]["id"]
        ids = [router.submit(body, "t")[1]["id"] for _ in range(DEFAULT_HISTORY + 2)]
        for session_id in ids:
            assert router.get_session(session_id)[1]["state"] == "done"
        # the two oldest settled sessions are forgotten, as a worker
        # forgets them; the open one never is
        assert [router.get_session(s)[0] for s in ids[:3]] == [404, 404, 200]
        tracked = router.metrics()[1]["cluster"]["sessions_tracked"]
        assert tracked == DEFAULT_HISTORY + 1
        _, listing = router.list_sessions(limit=2 * DEFAULT_HISTORY)
        assert listing["sessions"][-1] == {
            "id": never_polled, "worker": "w0", "done": False, "client": "t",
        }
        # a settled entry keeps its final, not its spec
        assert router._sessions[ids[-1]].spec is None
        assert router._sessions[never_polled].spec == json.loads(body)


class TestSharedCacheConfig:
    def test_defaults_off(self):
        config = ClusterConfig()
        assert config.shared_cache is False
        assert config.shared_cache_size == 65536

    def test_worker_argv_carries_shared_cache_address(self):
        config = ClusterConfig(shared_cache=True)
        argv = worker_argv(config, 9000, shared_cache="127.0.0.1:9100")
        flag = argv.index("--shared-cache")
        assert argv[flag + 1] == "127.0.0.1:9100"
        assert "--shared-cache" not in worker_argv(config, 9000)

    def test_cacheservice_argv_shape(self):
        from repro.cluster.cacheservice import cacheservice_argv

        argv = cacheservice_argv(9100, size=1234)
        assert "repro.cluster.cacheservice" in argv
        assert argv[argv.index("--port") + 1] == "9100"
        assert argv[argv.index("--size") + 1] == "1234"

    def test_router_builds_cache_slot_only_when_enabled(self):
        assert ClusterRouter(ClusterConfig(workers=1)).cache_service is None
        router = ClusterRouter(ClusterConfig(workers=1, shared_cache=True))
        assert router.cache_service is not None
        assert router.cache_service.name == "l2cache"
        address = f"127.0.0.1:{router.cache_service.port}"
        argv = router.workers[0].argv_builder(router.config, 9000)
        assert argv[argv.index("--shared-cache") + 1] == address


@pytest.mark.slow
class TestSharedCacheTier:
    def test_two_replicas_share_hits_with_golden_counts(self):
        from repro.testkit.sharedcache import live_shared_cache_smoke

        verdict = live_shared_cache_smoke(workers=2)
        assert verdict["identical"], verdict
        assert len(verdict["distinct_workers"]) >= 2, verdict
        assert verdict["l2_hits"] > 0, verdict
        assert verdict["ok"], verdict
        # every process the drain stopped exited 0, the cache service too
        assert "l2cache" in verdict["exit_codes"], verdict
        assert all(code == 0 for code in verdict["exit_codes"].values()), verdict


@pytest.mark.slow
class TestIdleTtlBehindRouter:
    def test_router_sweep_does_not_keep_abandoned_sessions_alive(self):
        """``--idle-ttl`` cancels a submitted-and-abandoned session on a
        worker behind the router, although the router's terminal sweep
        reads that session every few heartbeats."""
        from repro.cluster.router import ClusterHandle
        from repro.testkit.kill import hard_cluster_spec

        config = ClusterConfig(
            workers=1, port=0, heartbeat=0.2, backoff=0.2,
            serve=ServeConfig(
                height=6, width=6, num_classes=3, seed=1, latency=0.05,
                idle_ttl=1.0, reap_interval=0.2,
            ),
        )
        with ClusterHandle(config) as tier:
            status, accepted = tier.router.submit(
                json.dumps(hard_cluster_spec()).encode(), client="t"
            )
            assert status == 202
            deadline = time.monotonic() + 8.0
            cancelled = 0
            while not cancelled and time.monotonic() < deadline:
                time.sleep(0.2)  # /metrics scrapes are not polls either
                cancelled = tier.router.metrics()[1]["lifecycle"]["cancelled"]
            assert cancelled == 1
            status, final = tier.router.get_session(accepted["id"])
            assert status == 200 and final["state"] == "cancelled", final
            assert final["queries"] < 288, final


class TestLifecycleRouting:
    """Deadline, cancel, and reap plumbing; no worker processes."""

    def test_session_entry_parses_deadline_from_spec(self):
        from repro.cluster.router import SessionEntry

        assert SessionEntry(
            "c1", {"deadline_seconds": 4.5}, None, "w0"
        ).deadline_seconds == 4.5
        # booleans and garbage are not deadlines
        assert SessionEntry(
            "c2", {"deadline_seconds": True}, None, "w0"
        ).deadline_seconds is None
        assert SessionEntry("c3", {}, None, "w0").deadline_seconds is None
        assert SessionEntry("c4", None, None, "w0").deadline_seconds is None

    def test_pending_session_expires_even_with_no_live_workers(self, tmp_path):
        from repro.cluster.router import SessionEntry

        router = ClusterRouter(
            ClusterConfig(workers=1, checkpoint=str(tmp_path))
        )
        entry = _seed(
            router, SessionEntry("c1", {"deadline_seconds": 0.5}, "t", None)
        )
        entry.accepted_at -= 10.0  # the budget elapsed while pending
        router.ledger.append(
            {"kind": "session", "id": "c1", "client": "t", "spec": entry.spec}
        )
        assert router.tick_rebalance() == 0  # ring is empty: no placement
        status, payload = router.get_session("c1")
        assert status == 200 and payload["state"] == "expired"
        assert router.settled["expired"] == 1
        assert _unowned(router) == []
        records, _ = router.ledger.records()
        assert open_sessions_from_records(records) == {}
        router.ledger.close()

    def test_rebalance_hands_survivor_only_remaining_deadline(
        self, monkeypatch
    ):
        from repro.cluster.router import SessionEntry

        router = ClusterRouter(ClusterConfig(workers=1))
        router.ring.add("w0")
        entry = _seed(
            router, SessionEntry("c1", {"deadline_seconds": 60.0}, "t", None)
        )
        entry.accepted_at -= 10.0  # ten seconds already spent
        forwarded = {}

        def fake_forward(owner, session_id, spec, client):
            forwarded[session_id] = spec
            return 202, {"id": session_id}

        monkeypatch.setattr(router, "_forward_submit", fake_forward)
        assert router.tick_rebalance() == 1
        remaining = forwarded["c1"]["deadline_seconds"]
        assert 0 < remaining < 60.0
        assert remaining == pytest.approx(50.0, abs=5.0)
        # the original spec is untouched (the rewrite is a copy)
        assert entry.spec["deadline_seconds"] == 60.0

    def test_cancel_pending_session_settles_locally_and_closes_ledger(
        self, tmp_path
    ):
        from repro.cluster.router import SessionEntry

        router = ClusterRouter(
            ClusterConfig(workers=1, checkpoint=str(tmp_path))
        )
        entry = _seed(router, SessionEntry("c1", {"attack": "fixed"}, "t", None))
        router.ledger.append(
            {"kind": "session", "id": "c1", "client": "t", "spec": entry.spec}
        )
        status, payload = router.cancel_session("c1")
        assert status == 200 and payload["state"] == "cancelled"
        assert payload["worker"] is None  # no generator ever ran anywhere
        assert router.settled["cancelled"] == 1
        assert _unowned(router) == []
        # idempotent: a retried DELETE converges on the cached final
        assert router.cancel_session("c1") == (200, payload)
        assert router.settled["cancelled"] == 1
        records, _ = router.ledger.records()
        assert open_sessions_from_records(records) == {}
        router.ledger.close()
        assert router.cancel_session("c404")[0] == 404

    def test_router_level_shed_watermark(self):
        from repro.cluster.router import SessionEntry

        router = ClusterRouter(
            ClusterConfig(
                workers=1, shed_open_sessions=1,
                serve=ServeConfig(shed_retry_after=2.0),
            )
        )
        router.ring.add("w0")
        _seed(router, SessionEntry("c1", {}, "t", "w0"))
        status, payload = router.submit(b"{}", client="t")
        assert status == 503
        assert payload["retry_after"] == 2.0
        assert "overloaded" in payload["error"]
        assert router.shed_submits == 1

    def test_metrics_rollup_sums_worker_lifecycle_counters(self):
        def worker(cancelled, expired, reaped, shed):
            return {
                "broker": {},
                "sessions": {"states": {}},
                "lifecycle": {
                    "cancelled": cancelled,
                    "expired": expired,
                    "reaped": reaped,
                    "shed": shed,
                },
            }

        rollup = aggregate_worker_metrics(
            {"w0": worker(1, 2, 3, 4), "w1": worker(10, 20, 30, 40),
             "w2": None}
        )
        assert rollup["lifecycle"] == {
            "cancelled": 11, "expired": 22, "reaped": 33, "shed": 44,
        }
        assert rollup["unscraped"] == ["w2"]

    def test_worker_argv_carries_lifecycle_flags(self):
        config = ClusterConfig(workers=1, serve=ServeConfig(
            default_deadline=5.0, max_deadline=10.0,
            session_ttl=30.0, idle_ttl=60.0, reap_interval=0.5,
            shed_queue_depth=128, shed_sessions=32, shed_retry_after=2.0,
        ))
        argv = worker_argv(config, 9000)
        assert argv[argv.index("--default-deadline") + 1] == "5.0"
        assert argv[argv.index("--max-deadline") + 1] == "10.0"
        assert argv[argv.index("--session-ttl") + 1] == "30.0"
        assert argv[argv.index("--idle-ttl") + 1] == "60.0"
        assert argv[argv.index("--reap-interval") + 1] == "0.5"
        assert argv[argv.index("--shed-queue-depth") + 1] == "128"
        assert argv[argv.index("--shed-sessions") + 1] == "32"
        assert argv[argv.index("--shed-retry-after") + 1] == "2.0"
        # defaults add none of them
        bare = worker_argv(ClusterConfig(workers=1), 9000)
        for flag in ("--default-deadline", "--session-ttl",
                     "--shed-queue-depth", "--reap-interval"):
            assert flag not in bare


@pytest.mark.slow
class TestLifecycleTier:
    def test_cancel_and_kill_closes_ledger_and_resumes_nothing(self):
        from repro.testkit.kill import cancel_and_kill_cluster

        verdict = cancel_and_kill_cluster(workers=2)
        assert verdict["ok"], verdict
        assert verdict["cancelled_exact"], verdict
        assert verdict["survivor_queries"] == 288, verdict
        assert verdict["open_after_drain"] == [], verdict
        assert verdict["resumed_sessions"] == 0, verdict
