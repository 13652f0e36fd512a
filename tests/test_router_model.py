"""Model-based test of the cluster router's session table and its ledger.

A Hypothesis state machine drives one in-process :class:`ClusterRouter`
over a real ledger directory.  Worker replies are faked (the router's
``_forward_submit`` and its ``http_json`` client are replaced, as the
fast tests in ``tests/test_cluster.py`` do), so every interleaving of
submit, poll, DELETE, worker death and revival, rebalance tick,
terminal sweep, elapsed deadline and whole-router restart runs in
milliseconds.  After every step the machine checks the invariants the
router's query accounting rests on:

- the ledger's open set equals the router's open set (an open session
  is durable from acceptance or restore until it settles);
- each id has at most one ``session_done`` record;
- an id returned by submit is never returned again, across restarts;
- a settled session's poll answer never changes;
- an open session is held by at most one worker, and its owner is in
  the ring or ``None``;
- ``pending_rebalance`` counts exactly the open sessions with no owner.

The default profile keeps the run short; ``HYPOTHESIS_PROFILE=nightly``
(registered in ``tests/conftest.py``) runs many more, longer programs.
"""

import copy
import json
import shutil
import tempfile
from unittest import mock

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.cluster.config import ClusterConfig
from repro.cluster.router import ClusterRouter
from repro.cluster.workers import DEAD, LIVE
from repro.runtime.checkpoint import CheckpointStore, open_sessions_from_records
from repro.serve.sessions import TERMINAL_STATES

WORKERS = 2
#: Forward answers: placed, already there, at capacity, unavailable.
FORWARD = st.sampled_from([202, 409, 429, 503])
#: How a worker answers a read or a DELETE of one session.
REPLY = st.sampled_from(["running", "terminal", "gone", "down"])


class RouterLedgerMachine(RuleBasedStateMachine):
    sessions = Bundle("sessions")

    def __init__(self):
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="router-ledger-")
        self.forward_status = 202
        self.reply = "running"
        #: The fake tier: session id -> the worker running it.
        self.running_on = {}
        #: First answer seen for each settled session, this router run.
        self.answers = {}
        #: Every id submit returned, across all router runs.
        self.issued = []
        self.client = mock.patch("repro.cluster.router.http_json", self._worker)
        self.client.start()
        self.router = self._boot(resume=False)

    def teardown(self):
        self.client.stop()
        self.router.ledger.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    # ------------------------------------------------------------------
    # the fake workers
    # ------------------------------------------------------------------

    def _boot(self, resume):
        router = ClusterRouter(
            ClusterConfig(workers=WORKERS, checkpoint=self.directory, resume=resume)
        )
        router.ledger.reconcile_manifest(router.config.manifest())
        for worker in router.workers:
            worker.state = LIVE
            router.ring.add(worker.name)
        router._forward_submit = self._forward
        return router

    def _forward(self, owner, session_id, spec, client):
        if self.forward_status in (202, 409):
            holder = self.running_on.get(session_id)
            assert holder in (None, owner) or holder not in self.router.ring, (
                f"{session_id} placed on {owner} while live on {holder}"
            )
            self.running_on[session_id] = owner
        return self.forward_status, {"id": session_id}

    def _worker(self, address, method, path, body=None, headers=None, timeout=10.0):
        if not path.startswith("/attacks/"):
            return 503, {"error": "not scraped in this test"}
        session_id = path[len("/attacks/"):]
        if self.reply == "down":
            raise ConnectionRefusedError("worker down")
        if self.reply == "gone":
            return 410, {"error": f"session {session_id} was reaped"}
        if self.reply == "running":
            status = 202 if method == "DELETE" else 200
            return status, {"id": session_id, "state": "running", "queries": 3}
        # one terminal state per id, so every terminal answer agrees
        state = TERMINAL_STATES[sum(map(ord, session_id)) % len(TERMINAL_STATES)]
        return 200, {"id": session_id, "state": state, "queries": 7}

    # ------------------------------------------------------------------
    # rules
    # ------------------------------------------------------------------

    @rule(
        target=sessions,
        forward=st.sampled_from([202, 202, 429]),
        deadline=st.booleans(),
    )
    def submit(self, forward, deadline):
        self.forward_status = forward
        spec = {"attack": "fixed", "budget": 8}
        if deadline:
            spec["deadline_seconds"] = 30.0
        status, payload = self.router.submit(json.dumps(spec).encode(), "t")
        assert status == (forward if len(self.router.ring) else 503)
        if status == 202:
            self.issued.append(payload["id"])
        return payload.get("id", "refused")

    @rule(session_id=sessions, method=st.sampled_from(["GET", "DELETE"]), reply=REPLY)
    def poll(self, session_id, method, reply):
        self.reply = reply
        ask = {"GET": self.router.get_session, "DELETE": self.router.cancel_session}
        status, payload = ask[method](session_id)
        if session_id in self.answers:
            assert (status, payload) == (200, self.answers[session_id])

    @precondition(lambda self: len(self.router.ring) > 0)
    @rule(data=st.data(), forward=FORWARD)
    def worker_dies(self, data, forward):
        name = data.draw(st.sampled_from(sorted(self.router.ring.members())))
        self.forward_status = forward
        self.router._declare_dead(self.router.worker_named(name), reason="test")
        self.running_on = {
            sid: worker for sid, worker in self.running_on.items() if worker != name
        }

    @precondition(lambda self: len(self.router.ring) < WORKERS)
    @rule(data=st.data())
    def worker_returns(self, data):
        dead = [w for w in self.router.workers if w.name not in self.router.ring]
        worker = data.draw(st.sampled_from(dead))
        worker.state = LIVE  # what supervise_once does once a restart is healthy
        self.router.ring.add(worker.name)

    @rule(forward=FORWARD)
    def tick(self, forward):
        self.forward_status = forward
        self.router.tick_rebalance()

    @rule(reply=REPLY)
    def terminal_sweep(self, reply):
        self.reply = reply
        self.router.sweep_terminal_sessions()

    @precondition(
        lambda self: any(
            entry.deadline_seconds for entry in self.router._open.values()
        )
    )
    @rule(data=st.data())
    def deadline_elapses(self, data):
        timed = sorted(
            session_id
            for session_id, entry in self.router._open.items()
            if entry.deadline_seconds
        )
        entry = self.router._open[data.draw(st.sampled_from(timed))]
        entry.accepted_at -= entry.deadline_seconds + 1.0

    @rule(forward=FORWARD, times=st.integers(min_value=1, max_value=2))
    def restart(self, forward, times):
        """The router crashes and a new one resumes from the ledger, once
        or twice in a row; the workers restart with it, so nothing runs
        anywhere."""
        self.forward_status = forward
        for _ in range(times):
            self.router.ledger.close()
            self.running_on = {}
            self.answers = {}
            self.router = self._boot(resume=True)
            self.router.resume_sessions()

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------

    def _ledger(self):
        records, truncated = CheckpointStore(self.directory).records()
        assert not truncated
        return records

    @invariant()
    def ledger_open_set_is_the_routers(self):
        ledger_open = set(open_sessions_from_records(self._ledger()))
        assert ledger_open == set(self.router._open)

    @invariant()
    def each_id_settles_once_in_the_ledger(self):
        done = [r["id"] for r in self._ledger() if r["kind"] == "session_done"]
        assert len(done) == len(set(done)), sorted(done)

    @invariant()
    def issued_ids_are_never_reissued(self):
        assert len(self.issued) == len(set(self.issued)), self.issued
        # the next id starts past every id ever issued, in this router
        # and in the next one, which starts past the ids its ledger names
        highest = max((int(i[1:]) for i in self.issued), default=0)
        in_ledger = max((int(r["id"][1:]) for r in self._ledger()), default=0)
        assert self.router._next_id > highest, (self.router._next_id, highest)
        assert in_ledger >= highest, (in_ledger, highest)

    @invariant()
    def settled_answers_never_change(self):
        for session_id, entry in list(self.router._sessions.items()):
            if entry.final is not None:
                first = self.answers.setdefault(session_id, copy.deepcopy(entry.final))
                assert self.router.get_session(session_id) == (200, first)

    @invariant()
    def open_sessions_have_one_live_owner_at_most(self):
        for session_id, entry in self.router._open.items():
            assert entry.worker is None or entry.worker in self.router.ring
            if entry.worker is not None:
                assert self.running_on.get(session_id) == entry.worker

    @invariant()
    def pending_rebalance_counts_unowned_open_sessions(self):
        cluster = self.router.metrics()[1]["cluster"]
        unowned = [e for e in self.router._open.values() if e.worker is None]
        assert cluster["pending_rebalance"] == len(unowned)
        dead = [w for w in self.router.workers if w.state == DEAD]
        assert cluster["live"] == WORKERS - len(dead)


TestRouterLedger = RouterLedgerMachine.TestCase
TestRouterLedger.settings = (
    settings(deadline=None)
    if settings.get_current_profile_name() == "nightly"
    else settings(max_examples=100, stateful_step_count=25, deadline=None)
)
