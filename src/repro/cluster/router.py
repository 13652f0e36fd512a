"""The cluster front end: shard, supervise, rebalance, aggregate.

The router owns four responsibilities, deliberately layered so each is
small:

**Sharding.**  Sessions are assigned to workers by consistent hash of
the *router-generated* session id (:mod:`repro.cluster.hashing`).  The
assignment is sticky: every poll for a session is forwarded to the
replica that owns its :class:`~repro.serve.sessions.AttackSession`, so
per-session query accounting stays exactly as paper-faithful as the
single-process server -- one session, one counter, one replica.

**Supervision.**  A heartbeat thread sweeps every slot -- the workers
and, with ``--shared-cache``, the cache service: a process that exited,
misses consecutive ``/healthz`` probes, or never passes one within
``boot_timeout`` of a restart is declared dead and respawned into the
same slot with exponential backoff -- up to ``max_restarts`` times,
after which the slot stays down.  A dead worker also leaves the ring
(its capacity is gone but the tier keeps serving).

**Rebalancing.**  A dead worker's open sessions are re-submitted to
survivors under their original ids.  The attacks are deterministic and
every replica serves the same model, so a rebalanced session re-derives
the same query stream from the start and finishes with exactly the
final query count an uninterrupted run would have charged -- the same
invariant the PR 5 drain/resume path pinned, now applied across
replicas.  The durable record backing this is the router's *ledger*, a
:class:`~repro.runtime.checkpoint.CheckpointStore` of submitted specs
and completion markers: it survives worker crashes trivially (it never
lived in a worker) and lets a whole restarted tier resume its open
sessions with ``--resume``.  In memory the router mirrors it with one
session table and an index of the open entries; every terminal answer
settles through one path (:meth:`ClusterRouter._settle`) that records
the final once and closes the session's ledger record.

**Aggregation.**  ``/metrics`` scrapes every live worker and folds the
snapshots into a cluster plane (:mod:`repro.cluster.metrics`), and every
membership event -- spawn, death, restart, rebalance, drain -- lands in a
``cluster_event``-style JSONL log via :class:`~repro.runtime.events.RunLog`.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import threading
import time
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from typing import Deque, Dict, List, Optional, Tuple

from repro.cluster.cacheservice import cacheservice_argv
from repro.cluster.config import ClusterConfig, worker_argv
from repro.cluster.hashing import HashRing
from repro.cluster.metrics import aggregate_worker_metrics
from repro.cluster.workers import BOOTING, DEAD, LIVE, WorkerProcess, free_port
from repro.runtime.checkpoint import CheckpointStore, open_sessions_from_records
from repro.runtime.events import RunLog
from repro.runtime.http import FrontEndHandle, http_json, stop_signals
from repro.serve.server import SWEEP_HEADER, WORKER_FLAGS, _positive_int, add_flags
from repro.serve.sessions import DEFAULT_HISTORY, TERMINAL_STATES

#: Router requests in flight at once.  Each blocks a thread on worker
#: round trips; asyncio's default executor (min(32, cpus + 4) threads)
#: would let a few stalled workers starve /healthz and every other poll.
_ROUTE_THREADS = 512


class SessionEntry:
    """The router's record of one session: enough to route and rebuild.

    The session is open until :attr:`final` is set; an open entry with
    no :attr:`worker` awaits (re)placement.
    """

    __slots__ = (
        "session_id",
        "spec",
        "client",
        "worker",
        "final",
        "accepted_at",
        "deadline_seconds",
    )

    def __init__(
        self,
        session_id: str,
        spec: Dict,
        client: Optional[str],
        worker: Optional[str],
    ):
        self.session_id = session_id
        #: The submitted request; dropped once the session settles (only
        #: open sessions are ever re-submitted).
        self.spec = spec
        self.client = client
        #: Owning worker slot name; ``None`` while awaiting (re)placement.
        self.worker = worker
        #: The terminal payload, recorded once by
        #: :meth:`ClusterRouter._settle`, so a settled session stays
        #: pollable even after its worker dies.
        self.final: Optional[Dict] = None
        #: When the router accepted (or restored) this session; with
        #: :attr:`deadline_seconds` it lets a rebalance hand the new
        #: owner only the *remaining* wall-clock budget.
        self.accepted_at = time.monotonic()
        deadline = spec.get("deadline_seconds") if isinstance(spec, dict) else None
        self.deadline_seconds = (
            float(deadline)
            if isinstance(deadline, (int, float)) and not isinstance(deadline, bool)
            else None
        )


class ClusterRouter:
    """Sharded serve tier: N worker replicas behind one address."""

    def __init__(self, config: ClusterConfig):
        self.config = config
        self.run_log = RunLog(config.log_path)
        self.ledger = (
            CheckpointStore(config.checkpoint) if config.checkpoint else None
        )
        #: The shared L2 cache service, reusing the worker-slot plumbing
        #: (spawn/health/terminate + supervised restart) with its own
        #: argv.  Workers are pointed at its fixed loopback port, which
        #: survives restarts of the service, so a respawned cache is
        #: picked up by every worker's L2 cooldown probe automatically.
        self.cache_service: Optional[WorkerProcess] = None
        builder = None
        if config.shared_cache:
            self.cache_service = WorkerProcess(
                "l2cache",
                free_port(),
                config,
                argv_builder=lambda cfg, port: cacheservice_argv(
                    port, cfg.shared_cache_size
                ),
            )
            shared_address = f"127.0.0.1:{self.cache_service.port}"

            def builder(cfg, port, _address=shared_address):
                return worker_argv(cfg, port, shared_cache=_address)

        self.workers: List[WorkerProcess] = [
            WorkerProcess(f"w{index}", free_port(), config, argv_builder=builder)
            for index in range(config.workers)
        ]
        self.ring = HashRing()
        self.draining = False
        self._lock = threading.RLock()
        # Serializes rebalance ticks: tick_rebalance is reachable from
        # the supervisor sweep, _declare_dead, and resume_sessions, and
        # its forward-submit runs outside _lock -- unserialized, two
        # concurrent ticks could place the same session.
        self._rebalance_lock = threading.Lock()
        #: The session table, in submission order: every open session
        #: and the last DEFAULT_HISTORY settled ones.
        self._sessions: Dict[str, SessionEntry] = {}
        #: The open index: entries not yet settled, by id.
        self._open: Dict[str, SessionEntry] = {}
        #: Settled ids, oldest first: the table forgets from the left.
        self._history: Deque[str] = deque()
        self._next_id = 1
        self._boot_deadlines: Dict[str, float] = {}
        self._sweeps = 0  # supervise_once invocations (terminal-sweep cadence)
        # counters for the cluster metrics plane
        self.routed = 0
        self.rebalanced_sessions = 0
        self.deaths = 0
        #: Router-settled sessions by final state (worker-level lifecycle
        #: counters are summed from /metrics scrapes).
        self.settled: Counter = Counter()
        self.shed_submits = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "ClusterRouter":
        """Spawn every worker, wait for health, arm the ring and ledger."""
        if self.ledger is not None:
            self.ledger.reconcile_manifest(self.config.manifest())
        if self.cache_service is not None:
            # The cache boots first so workers find a live L2 on their
            # very first miss (a late L2 would only cost misses, not
            # correctness, but there is no reason to waste them).
            self.cache_service.spawn()
            self._slot_event(
                self.cache_service,
                "spawn",
                port=self.cache_service.port,
                pid=self.cache_service.pid,
            )
            if not self.cache_service.wait_healthy(self.config.boot_timeout):
                self.shutdown_workers()
                raise RuntimeError(
                    "shared cache service failed to become healthy within "
                    f"{self.config.boot_timeout}s"
                )
        for worker in self.workers:
            worker.spawn()
            self._slot_event(worker, "spawn", port=worker.port, pid=worker.pid)
        failed = []
        for worker in self.workers:
            if worker.wait_healthy(self.config.boot_timeout):
                with self._lock:
                    self.ring.add(worker.name)
            else:
                failed.append(worker.name)
        if failed:
            self.shutdown_workers()
            raise RuntimeError(
                f"workers failed to become healthy within "
                f"{self.config.boot_timeout}s: {', '.join(failed)}"
            )
        if self.config.resume:
            self.resume_sessions()
        elif self.ledger is not None:
            # the records stay for a later --resume; new ids skip theirs
            for record in self.ledger.records()[0]:
                self._note_restored_id(record.get("id", ""))
        return self

    def shutdown_workers(self) -> Dict[str, Optional[int]]:
        """SIGTERM every worker; returns per-worker exit codes."""
        for worker in self.workers:
            if worker.process_alive():
                worker.proc.send_signal(signal.SIGTERM)
        codes = {worker.name: worker.terminate() for worker in self.workers}
        if self.cache_service is not None:
            # Stopped last: workers may flush final write-throughs while
            # draining, and a vanished L2 would burn their cooldown
            # windows for nothing.
            codes[self.cache_service.name] = self.cache_service.terminate()
        return codes

    def drain(self) -> Dict:
        """SIGTERM path for the whole tier.

        Flip the 503 gate, gracefully stop every worker (each finishes
        its in-flight broker batches before exiting), and leave open
        sessions durable in the ledger -- a tier restarted with
        ``--resume`` re-submits and finishes them with paper-faithful
        query counts.  Returns an operator summary.
        """
        self.draining = True
        # Before the workers go away, settle sessions that reached a
        # terminal state without a client ever polling them: unswept,
        # their ledger records stay open forever and --resume re-runs
        # the full attack (a budget-sized amount of wasted work).
        swept = self.sweep_terminal_sessions()
        exit_codes = self.shutdown_workers()
        with self._lock:
            open_count = len(self._open)
        summary = {
            "workers": len(self.workers),
            "open": open_count,
            "durable": open_count if self.ledger is not None else 0,
            "swept": swept,
            "exit_codes": exit_codes,
        }
        self.run_log.emit("cluster_drain", **summary)
        if self.ledger is not None:
            self.ledger.close()
        self.run_log.close()
        return summary

    def live_workers(self) -> List[WorkerProcess]:
        with self._lock:
            return [w for w in self.workers if w.name in self.ring]

    def worker_named(self, name: str) -> Optional[WorkerProcess]:
        for worker in self.workers:
            if worker.name == name:
                return worker
        return None

    # ------------------------------------------------------------------
    # the session table
    # ------------------------------------------------------------------

    def _generate_id(self) -> str:
        with self._lock:
            session_id = f"c{self._next_id}"
            self._next_id += 1
            return session_id

    def _note_restored_id(self, session_id: str) -> None:
        """Start new ids past ``session_id``, so a new session never
        takes an id the ledger already holds (nor its ``session_done``)."""
        if session_id.startswith("c") and session_id[1:].isdigit():
            with self._lock:
                self._next_id = max(self._next_id, int(session_id[1:]) + 1)

    def _record_open(self, entry: SessionEntry, spec: Dict) -> None:
        """Append the ledger ``session`` record that keeps ``entry`` open."""
        if self.ledger is not None:
            self.ledger.append(
                {
                    "kind": "session",
                    "id": entry.session_id,
                    "client": entry.client,
                    "spec": spec,
                }
            )

    def _settle(
        self, entry: SessionEntry, final: Dict, event: Optional[str] = None, **fields
    ) -> Dict:
        """Record ``entry``'s terminal payload once; returns the recorded one.

        The one path every terminal answer takes -- a forwarded poll, a
        DELETE reply, the terminal sweep, a worker's 410, a cancel or a
        deadline that lands before placement.  The first call counts the
        final state, drops the spec, forgets settled entries beyond
        ``DEFAULT_HISTORY`` (oldest first, as each worker does), closes
        the ledger record and emits ``event``; later calls change
        nothing, so a settled session's answer never changes.
        """
        with self._lock:
            if entry.final is not None:
                return entry.final
            entry.final, entry.spec = final, None
            del self._open[entry.session_id]
            self.settled[final["state"]] += 1
            self._history.append(entry.session_id)
            while len(self._history) > DEFAULT_HISTORY:
                self._sessions.pop(self._history.popleft(), None)
        if self.ledger is not None:
            self.ledger.append({"kind": "session_done", "id": entry.session_id})
        if event is not None:
            self.run_log.emit(event, session=entry.session_id, **fields)
        return final

    def _settle_here(
        self,
        entry: SessionEntry,
        state: str,
        worker: Optional[str] = None,
        error: Optional[str] = None,
    ) -> Dict:
        """Settle with a final the router builds itself (no worker payload)."""
        final = {
            "id": entry.session_id,
            "state": state,
            "queries": None,
            "worker": worker,
        }
        if error is not None:
            final["error"] = error
        where = {"worker": worker} if worker is not None else {"pending": True}
        return self._settle(entry, final, f"session_{state}", **where)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def submit(self, body: bytes, client: str) -> Tuple[int, Dict]:
        """Route one ``POST /attacks`` to its replica by consistent hash."""
        if self.draining:
            return 503, {"error": "cluster is draining for shutdown"}
        try:
            spec = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return 400, {"error": f"invalid JSON body: {exc}"}
        if not isinstance(spec, dict):
            return 400, {"error": "request body must be a JSON object"}
        watermark = self.config.shed_open_sessions
        if watermark is not None:
            with self._lock:
                open_count = len(self._open)
                if open_count >= watermark:
                    self.shed_submits += 1
            if open_count >= watermark:
                return 503, {
                    "error": f"overloaded: {open_count} open sessions >= {watermark}",
                    "retry_after": self.config.serve.shed_retry_after,
                }
        session_id = self._generate_id()
        with self._lock:
            owner = self.ring.assign(session_id)
        if owner is None:
            return 503, {"error": "no live workers", "retry_after": 1}
        status, payload = self._forward_submit(owner, session_id, spec, client)
        if status != 202:
            return status, payload
        entry = SessionEntry(session_id, spec, client, owner)
        with self._lock:
            self._sessions[session_id] = self._open[session_id] = entry
            self.routed += 1
            if owner not in self.ring:
                # the owner died between forward and commit; leave the
                # session unowned for the next rebalance tick
                entry.worker = None
        self._record_open(entry, spec)
        return 202, dict(payload, worker=entry.worker)

    def _ask(
        self, slot: WorkerProcess, method: str, path: str, unreachable: str = "",
        **request,
    ) -> Tuple[int, Dict]:
        """One round trip to ``slot``; a transport error is a 503."""
        try:
            return http_json(slot.address, method, path, **request)
        except OSError:
            return 503, {
                "error": f"worker {slot.name} unreachable{unreachable}",
                "retry_after": 1,
            }

    def _forward_submit(
        self, owner: str, session_id: str, spec: Dict, client: Optional[str]
    ) -> Tuple[int, Dict]:
        headers = {"X-Session-Id": session_id}
        if client:
            headers["X-Client-Id"] = client
        body = json.dumps(spec).encode("utf-8")
        return self._ask(
            self.worker_named(owner), "POST", "/attacks", body=body, headers=headers
        )

    def _relay(self, session_id: str, method: str, **request) -> Tuple[int, Dict]:
        """Answer a session from its final, or ask its owner and settle.

        The one way a poll (``GET``), a ``DELETE`` and the terminal
        sweep reach a worker.  A settled session answers from its
        recorded final with no round trip.  An unowned one has no live
        generator anywhere: a ``DELETE`` settles it ``cancelled`` here,
        a poll gets 503 until it is placed.  A terminal answer (tagged
        with the worker) settles the session, and so does a 410 -- the
        worker's TTL reaper forgot it before anyone collected its final
        -- as ``reaped``, so the ledger closes either way.
        """
        with self._lock:
            entry = self._sessions.get(session_id)
            if entry is None:
                return 404, {"error": f"no such session: {session_id}"}
            if entry.final is not None:
                return 200, entry.final
            owner = entry.worker
        if owner is None and method == "DELETE":
            return 200, self._settle_here(entry, "cancelled")
        if owner is None:
            return 503, {
                "error": f"session {session_id} is being rebalanced",
                "retry_after": 1,
            }
        unreachable = (
            "; retry cancellation" if method == "DELETE" else "; session will rebalance"
        )
        status, payload = self._ask(
            self.worker_named(owner), method, f"/attacks/{session_id}",
            unreachable, **request,
        )
        if status == 410:
            return 200, self._settle_here(
                entry, "reaped", owner,
                "session reaped by worker TTL before a terminal poll",
            )
        if status in (200, 202):
            payload = dict(payload, worker=owner)
            if payload.get("state") in TERMINAL_STATES:
                payload = self._settle(entry, payload)
        return status, payload

    def get_session(self, session_id: str) -> Tuple[int, Dict]:
        """``GET /attacks/<id>``: the sticky owner's answer, or the final."""
        return self._relay(session_id, "GET")

    def cancel_session(self, session_id: str) -> Tuple[int, Dict]:
        """``DELETE /attacks/<id>``: forward to the sticky owner.

        Mirrors the worker's semantics (202 cancellation requested, 200
        already terminal); a session awaiting (re)placement is settled
        as cancelled by the router itself (see :meth:`_relay`).
        """
        return self._relay(session_id, "DELETE")

    def sweep_terminal_sessions(self) -> int:
        """Settle terminal-but-never-polled sessions on live workers.

        Client polls are the normal path to :meth:`_settle`; a client
        that submits and walks away leaves its finished session's ledger
        record open, so a later ``--resume`` would re-run the whole
        attack.  This sweep relays one read per open owned session and
        settles the terminal ones.  The reads carry ``SWEEP_HEADER``:
        they are not client polls, so they do not defer a worker's
        ``--idle-ttl`` reaper.  Returns how many sessions it settled.
        """
        with self._lock:
            owned = [
                (entry, entry.worker)
                for entry in self._open.values()
                if entry.worker is not None
            ]
        swept = 0
        for entry, owner in owned:
            if self.worker_named(owner).state != LIVE or entry.final is not None:
                continue  # the supervisor sweep handles dead workers
            self._relay(
                entry.session_id, "GET", headers={SWEEP_HEADER: "1"}, timeout=5.0
            )
            if entry.final is not None:
                swept += 1
        if swept:
            self.run_log.emit("terminal_sweep", sessions=swept)
        return swept

    def list_sessions(self, limit: int = 200) -> Tuple[int, Dict]:
        with self._lock:
            recent = list(self._sessions.values())[-limit:][::-1]
            sessions = [
                {
                    "id": entry.session_id,
                    "worker": entry.worker,
                    "done": entry.final is not None,
                    "client": entry.client,
                }
                for entry in recent
            ]
        return 200, {"sessions": sessions}

    def healthz(self) -> Tuple[int, Dict]:
        if self.draining:
            return 503, {"status": "draining"}
        live = self.live_workers()
        return 200, {
            "status": "ok",
            "model": self.config.serve.model,
            "workers": {"live": len(live), "total": len(self.workers)},
        }

    def metrics(self) -> Tuple[int, Dict]:
        slots = self._slots()
        scraped: Dict[str, Optional[Dict]] = dict.fromkeys(s.name for s in slots)
        for slot in slots:
            if slot.state == LIVE:
                status, payload = self._ask(slot, "GET", "/metrics", timeout=5.0)
                scraped[slot.name] = payload if status == 200 else None
        rollup = aggregate_worker_metrics(
            {worker.name: scraped[worker.name] for worker in self.workers}
        )
        with self._lock:
            rollup["cluster"] = {
                "workers": [worker.describe() for worker in self.workers],
                "live": len(self.ring),
                "routed": self.routed,
                "rebalanced_sessions": self.rebalanced_sessions,
                "deaths": self.deaths,
                "restarts": sum(worker.restarts for worker in self.workers),
                "pending_rebalance": sum(
                    1 for entry in self._open.values() if entry.worker is None
                ),
                "sessions_tracked": len(self._sessions),
                "cancelled_sessions": self.settled["cancelled"],
                "expired_sessions": self.settled["expired"],
                "reaped_sessions": self.settled["reaped"],
                "shed_submits": self.shed_submits,
            }
        if self.cache_service is not None:
            service = scraped[self.cache_service.name]
            rollup["shared_cache"] = {
                "slot": self.cache_service.describe(),
                "service": None if service is None else service.get("shared_cache"),
            }
        return 200, rollup

    def route(
        self, method: str, path: str, body: bytes, client: str
    ) -> Tuple[int, Dict]:
        """The router's HTTP surface; mirrors the single-process server."""
        if path == "/healthz" and method == "GET":
            return self.healthz()
        if path == "/metrics" and method == "GET":
            return self.metrics()
        if path == "/attacks" and method == "POST":
            return self.submit(body, client)
        if path == "/attacks" and method == "GET":
            return self.list_sessions()
        if path.startswith("/attacks/") and method == "GET":
            return self.get_session(path[len("/attacks/"):])
        if path.startswith("/attacks/") and method == "DELETE":
            return self.cancel_session(path[len("/attacks/"):])
        if path in ("/healthz", "/metrics", "/attacks") or path.startswith(
            "/attacks/"
        ):
            return 405, {"error": f"method {method} not allowed on {path}"}
        return 404, {"error": f"no such endpoint: {path}"}

    # ------------------------------------------------------------------
    # supervision and rebalancing
    # ------------------------------------------------------------------

    def _slots(self) -> List[WorkerProcess]:
        """Every supervised slot: the workers, then the cache service."""
        cache = [self.cache_service] if self.cache_service is not None else []
        return self.workers + cache

    def _slot_event(self, slot: WorkerProcess, event: str, **fields) -> None:
        """Log ``worker_<event>`` (naming the worker) or ``cache_service_<event>``."""
        if slot is self.cache_service:
            self.run_log.emit(f"cache_service_{event}", **fields)
        else:
            self.run_log.emit(f"worker_{event}", worker=slot.name, **fields)

    def supervise_once(self, now: Optional[float] = None) -> None:
        """One heartbeat sweep: detect deaths, promote boots, restart."""
        now = time.monotonic() if now is None else now
        for slot in self._slots():
            if slot.state in (LIVE, BOOTING):
                if not slot.process_alive():
                    self._declare_dead(slot, reason="process exited")
                elif slot.healthy(timeout=min(2.0, self.config.heartbeat * 4)):
                    slot.missed_heartbeats = 0
                    if slot.state == BOOTING:
                        slot.state = LIVE
                        if slot is not self.cache_service:
                            with self._lock:
                                self.ring.add(slot.name)
                        self._slot_event(slot, "live", pid=slot.pid)
                elif slot.state == LIVE:
                    slot.missed_heartbeats += 1
                    if slot.missed_heartbeats >= self.config.heartbeat_misses:
                        self._declare_dead(slot, reason="heartbeat misses")
                elif now > self._boot_deadlines.get(slot.name, now + 1):
                    self._declare_dead(slot, reason="boot timeout")
            elif slot.state == DEAD and slot.next_spawn_at is not None:
                if now >= slot.next_spawn_at:
                    self._restart(slot)
        self._sweeps += 1
        if self._sweeps % 4 == 0:
            # Periodic terminal-session reaping (satellite of drain's
            # sweep): closes ledger records of abandoned sessions while
            # the tier is still running, not only at shutdown.
            self.sweep_terminal_sessions()
        self.tick_rebalance()

    def _declare_dead(self, slot: WorkerProcess, reason: str) -> None:
        """Make a slot's death real and schedule its restart.

        A dead worker also leaves the ring, and its open sessions become
        unowned, awaiting rebalance.  A dead cache service is never an
        emergency -- every worker silently degrades to private-L1
        behaviour and re-probes after its cooldown -- so it only costs
        shared hits, and its restart (same port) needs no coordination.
        """
        if slot.state == DEAD:
            return
        slot.state = DEAD
        if slot.proc is not None and slot.proc.poll() is None:
            slot.kill()  # unresponsive but alive: make death real
        is_worker = slot is not self.cache_service
        if is_worker:
            with self._lock:
                self.ring.remove(slot.name)
                self.deaths += 1
                orphaned = [
                    entry for entry in self._open.values() if entry.worker == slot.name
                ]
                for entry in orphaned:
                    entry.worker = None
            self._slot_event(
                slot, "death", reason=reason, orphaned_sessions=len(orphaned)
            )
            if orphaned:
                self.run_log.emit(
                    "cluster_rebalance", worker=slot.name, sessions=len(orphaned)
                )
        else:
            self._slot_event(slot, "death", reason=reason)
        if slot.restarts < self.config.max_restarts:
            slot.next_spawn_at = time.monotonic() + self.config.backoff * (
                2 ** slot.restarts
            )
        else:
            slot.next_spawn_at = None
            self._slot_event(slot, "restart_exhausted", restarts=slot.restarts)
        if is_worker:
            self.tick_rebalance()

    def _restart(self, slot: WorkerProcess) -> None:
        slot.restarts += 1
        slot.spawn()
        self._boot_deadlines[slot.name] = time.monotonic() + self.config.boot_timeout
        self._slot_event(slot, "restart", restarts=slot.restarts, pid=slot.pid)

    def tick_rebalance(self) -> int:
        """Try to place every open session that has no worker.

        Re-submits each one's original spec under its original id; the
        deterministic attack re-runs from the start on the new replica,
        so its final query count matches an uninterrupted run exactly.
        Deadlines ride the spec: the new owner inherits only the
        *remaining* wall-clock budget, so a rebalanced session expires
        when the original would have, and one whose budget ran out while
        it waited settles as ``expired`` here, even with no live
        workers.  A session that cannot be placed yet (no live workers,
        capacity 429s, 503s, transport errors) stays unowned for the
        next tick.  Returns how many sessions were placed.

        Ticks are serialized: this method is reachable concurrently
        from the supervisor sweep, :meth:`_declare_dead`, and
        :meth:`resume_sessions`, and the forward-submit deliberately
        runs outside ``_lock`` (it is a worker round trip).  A second
        tick arriving while one is running returns immediately.  The
        running tick's snapshot of unowned open entries is therefore
        the claim: a session is never double-submitted, its ledger
        ``session`` record never double-appended, and
        ``rebalanced_sessions`` never double-incremented.  An entry
        that settled while the tick ran (a DELETE) is not forwarded.
        """
        if not self._rebalance_lock.acquire(blocking=False):
            return 0
        try:
            with self._lock:
                unowned = [e for e in self._open.values() if e.worker is None]
            placed = 0
            for entry in unowned:
                with self._lock:
                    if entry.final is not None:
                        continue
                    spec, remaining = entry.spec, None
                    if entry.deadline_seconds is not None:
                        remaining = entry.deadline_seconds - (
                            time.monotonic() - entry.accepted_at
                        )
                        spec = dict(spec, deadline_seconds=remaining)
                    owner = self.ring.assign(entry.session_id)
                if remaining is not None and remaining <= 0:
                    self._settle_here(
                        entry, "expired",
                        error="deadline elapsed while awaiting placement",
                    )
                    continue
                if owner is None:
                    continue
                status, _payload = self._forward_submit(
                    owner, entry.session_id, spec, entry.client
                )
                if status not in (202, 409):  # 409: the replica already has it
                    continue
                with self._lock:
                    entry.worker = owner
                    self.rebalanced_sessions += 1
                placed += 1
                # the rewritten spec, so a tier restart also inherits
                # only the remaining deadline budget
                self._record_open(entry, spec)
                self.run_log.emit(
                    "session_rebalanced", session=entry.session_id, worker=owner
                )
            return placed
        finally:
            self._rebalance_lock.release()

    # ------------------------------------------------------------------
    # resume
    # ------------------------------------------------------------------

    def resume_sessions(self) -> int:
        """Restore the ledger's open sessions after a tier restart.

        The ledger is compacted to the open sessions' latest ``session``
        records in one atomic rename, so each stays durable until it
        settles, whether or not a tick has placed it yet.  New ids start
        past every id the ledger named.  Returns how many sessions were
        restored.
        """
        if self.ledger is None:
            return 0
        records, _truncated = self.ledger.records()
        restored = open_sessions_from_records(records)
        self.ledger.clear_records(keep=restored.values())
        for record in records:
            self._note_restored_id(record.get("id", ""))
        with self._lock:
            for session_id, record in restored.items():
                entry = SessionEntry(
                    session_id, record["spec"], record.get("client"), None
                )
                self._sessions[session_id] = self._open[session_id] = entry
        if restored:
            self.run_log.emit("cluster_resume", sessions=len(restored))
            self.tick_rebalance()
        return len(restored)


class ClusterSupervisor(threading.Thread):
    """The heartbeat loop, as a daemon thread."""

    def __init__(self, router: ClusterRouter):
        super().__init__(name="cluster-supervisor", daemon=True)
        self.router = router
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self.router.config.heartbeat):
            try:
                self.router.supervise_once()
            except Exception:  # supervision must outlive any one sweep
                pass

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=10.0)


class ClusterHandle(FrontEndHandle):
    """A full tier (router + workers + supervisor) under one handle.

    The router listens in-process on a background event loop while
    workers run as real subprocesses -- the same shape as production,
    minus the top-level signal handling, so tests and benchmarks can
    start a tier with ``with ClusterHandle(config) as handle:`` and read
    its resolved ``address``.  Router handlers block on worker round
    trips, so each request runs on a thread of the handle's own pool,
    off the event loop.
    """

    def __init__(self, config: ClusterConfig):
        self.config = config
        self.router = ClusterRouter(config)
        self.supervisor: Optional[ClusterSupervisor] = None
        self._threads = ThreadPoolExecutor(
            max_workers=_ROUTE_THREADS, thread_name_prefix="cluster-route"
        )
        self._stopped = False
        super().__init__(self._route, config.host, config.port, name="cluster-http")

    def _route(self, method: str, path: str, headers: Dict[str, str], body: bytes):
        return asyncio.get_running_loop().run_in_executor(
            self._threads,
            self.router.route,
            method,
            path,
            body,
            headers["x-client-id"],
        )

    def start(self) -> "ClusterHandle":
        self.router.start()
        super().start()
        self.supervisor = ClusterSupervisor(self.router)
        self.supervisor.start()
        return self

    def drain(self) -> Dict:
        """Graceful tier shutdown; idempotent.  Returns the summary."""
        if self._stopped:
            return {}
        self._stopped = True
        self.router.draining = True
        if self.supervisor is not None:
            self.supervisor.stop()
        summary = self.router.drain()
        super().stop()
        self._threads.shutdown(wait=False)
        return summary

    def stop(self) -> None:
        self.drain()


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------


def run_cluster(config: ClusterConfig) -> int:
    """Run a tier until SIGTERM/SIGINT, then drain it; returns 0.

    Shared by ``repro cluster`` and ``repro-serve --cluster N``.  The
    signals are armed before the blocking boot: one that lands while
    workers start still drains the tier once it is up.
    """

    async def run() -> None:
        with stop_signals() as stop:
            handle = ClusterHandle(config)
            try:
                handle.start()
                host, port = handle.address
                print(
                    f"repro-cluster: {config.workers} x {config.serve.model} "
                    f"replicas behind http://{host}:{port} "
                    f"(heartbeat {config.heartbeat:.1f}s, "
                    f"restarts<={config.max_restarts})"
                )
                await stop.wait()
                summary = handle.drain()
                print(
                    f"repro-cluster: drained; {summary['open']} open sessions, "
                    f"{summary['durable']} durable in the ledger"
                )
            finally:
                handle.stop()

    asyncio.run(run())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro cluster",
        description="Sharded multi-worker attack serving: N repro-serve "
        "replicas behind a consistent-hash router with health "
        "supervision, crash rebalancing, and cluster metrics",
    )
    parser.add_argument("--workers", type=int, default=2,
                        help="worker replica processes")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8870,
                        help="router port (workers take ephemeral ports)")
    add_flags(parser, WORKER_FLAGS)
    parser.add_argument(
        "--shared-cache", action="store_true", dest="shared_cache",
        help="run a shared L2 query-cache process; workers consult it "
        "on L1 miss and write scored entries through (results are "
        "bit-identical either way; saves cross-replica forward passes)",
    )
    parser.add_argument(
        "--shared-cache-size", type=int, default=65536,
        dest="shared_cache_size",
        help="entries in the shared L2 bounded LRU",
    )
    parser.add_argument("--heartbeat", type=float, default=0.5)
    parser.add_argument("--max-restarts", type=int, default=3)
    parser.add_argument("--backoff", type=float, default=0.5)
    parser.add_argument(
        "--checkpoint", default=None, metavar="DIR",
        help="durable session ledger: open sessions survive worker "
        "crashes and whole-tier restarts",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="re-submit open sessions from --checkpoint on startup",
    )
    parser.add_argument("--log", default=None, dest="log_path",
                        help="cluster_event JSONL telemetry file")
    parser.add_argument(
        "--shed-open-sessions", type=_positive_int, default=None,
        dest="shed_open_sessions", metavar="N",
        help="router-level overload shedding: refuse new submits with "
        "503 while >= N sessions are open tier-wide",
    )
    return parser


def main(argv=None) -> int:
    options = vars(build_parser().parse_args(argv))
    try:
        return run_cluster(ClusterConfig.from_options(options))
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
