"""A single-threaded HTTP load generator with open and closed phases.

All load comes from one thread holding at most one connection: every
response of the serve and cluster front ends is ``Connection: close``,
so each request is its own connection and no client-side concurrency
can distort what the server sees.  Submissions always take priority
over polls; each in-flight session is polled at most every
:data:`POLL_INTERVAL` seconds, or :data:`OPEN_POLL_INTERVAL` in the
open phase, and not before it is likely to have finished
(:class:`FirstPoll`).

A session's latency runs from its *scheduled* submit time to the
server-reported ``finished_at``; both come from the host's wall clock,
so neither polling cadence nor generator lag can hide a stall.
"""

from __future__ import annotations

import http.client
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

#: Minimum gap between polls of one session (``examples/serve_clients.py``).
#: The closed phase needs it: a finished session's slot is refilled only
#: once a poll sees it finish.
POLL_INTERVAL = 0.02
#: The open phase's gap.  There a poll only collects a result -- latency
#: ends at the server-reported ``finished_at`` -- but every poll is an HTTP
#: connection the server's interpreter handles while its session threads
#: wait: at 20 ms, polls of the sessions in flight made ``serve_cnn``'s p50
#: and p90 spread 22% and 25% over eight runs of one seed, against 11% and
#: 17% at 100 ms.
OPEN_POLL_INTERVAL = 0.1
#: How long a phase waits for its in-flight sessions after it closes.
DRAIN_TIMEOUT = 60.0
#: A session is first polled when this share of the phase's earlier
#: sessions of its attack had finished (see :class:`FirstPoll`).
FIRST_POLL_QUANTILE = 0.1
#: Durations remembered per attack, and the fewest that set a first poll.
FIRST_POLL_HISTORY = 64
FIRST_POLL_MIN_SAMPLES = 8

TERMINAL = ("done", "failed", "cancelled", "expired")


class Http:
    """One request per connection against ``host:port``."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.host = host
        self.port = port
        self.timeout = timeout

    def call(
        self, method: str, path: str, body: bytes = None, headers: Dict = None
    ) -> Tuple[int, Dict, float]:
        """``(status, json payload, round-trip seconds)``."""
        started = time.perf_counter()
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            conn.request(method, path, body=body, headers=headers or {})
            response = conn.getresponse()
            status, data = response.status, response.read()
        finally:
            conn.close()
        rtt = time.perf_counter() - started
        return status, (json.loads(data) if data else {}), rtt

    def ready(self) -> bool:
        try:
            status, _, _ = self.call("GET", "/healthz")
        except OSError:
            return False
        return status == 200


@dataclass
class Session:
    """One submitted request and everything observed about it."""

    request: object  # workloads.Request
    due: float  # scheduled submit time (wall clock)
    sent: float = 0.0
    session_id: Optional[str] = None
    #: HTTP status of a refused submission (429/503/...), else ``None``.
    refused: Optional[int] = None
    final: Optional[Dict] = None
    next_poll: float = 0.0

    @property
    def done(self) -> bool:
        return self.final is not None and self.final.get("state") == "done"

    @property
    def latency(self) -> float:
        return self.final["finished_at"] - self.due


class FirstPoll:
    """When to poll a session for the first time.

    Polling every in-flight session every 20 ms from its submission is
    load on the server: each poll is an HTTP connection its interpreter
    handles while the session threads wait.  In the closed phase of
    ``serve_cnn``, 8 sessions of ~130 ms each drew ~320 polls a second,
    and polling every 60 ms instead raised the throughput the phase
    measures by 9% (1612 -> 1755 queries/s, nominal speed).  So a
    session's first poll waits for :data:`FIRST_POLL_QUANTILE` of the
    recent durations (submission to server-reported ``finished_at``) of
    the phase's earlier sessions of the same attack, after which it is
    polled at the phase's interval as before.  Only the sessions that
    finish faster than nearly all of their kind wait longer to be seen.
    """

    def __init__(self):
        self._durations: Dict[str, List[float]] = {}

    def delay(self, attack: str) -> float:
        """Seconds from submission to the first poll (0 while unknown)."""
        recent = self._durations.get(attack, [])
        if len(recent) < FIRST_POLL_MIN_SAMPLES:
            return 0.0
        return sorted(recent)[int(FIRST_POLL_QUANTILE * len(recent))]

    def observe(self, session: Session) -> None:
        recent = self._durations.setdefault(session.request.attack, [])
        recent.append(session.final["finished_at"] - session.sent)
        del recent[:-FIRST_POLL_HISTORY]


@dataclass
class PhaseLog:
    """What one phase did, for metrics and the correctness gate."""

    sessions: List[Session] = field(default_factory=list)
    submit_rtts: List[float] = field(default_factory=list)
    poll_rtts: List[float] = field(default_factory=list)
    lags: List[float] = field(default_factory=list)  # open phase only
    started: float = 0.0
    closed_at: float = 0.0  # when the phase stopped submitting
    ended: float = 0.0  # when its last session resolved


def _run(
    http: Http,
    next_due: Callable[[float, int], Optional[float]],
    make: Callable[[int], object],
    exhausted: Callable[[float, int], bool],
    log: PhaseLog,
    record_lag: bool,
    poll_interval: float,
) -> PhaseLog:
    """The event loop shared by both phases.

    ``next_due(now, in_flight)`` is the wall time the next submission is
    due (``None`` while none is); ``exhausted(now, submitted)`` says the
    phase will submit no more.  Runs until the phase is exhausted and
    every session has resolved (or :data:`DRAIN_TIMEOUT` passes).
    """
    in_flight: Dict[str, Session] = {}
    first_poll = FirstPoll()
    submitted = 0
    drain_deadline = None
    while True:
        now = time.time()
        due = None
        if not exhausted(now, submitted):
            due = next_due(now, len(in_flight))
            if due is not None and due <= now:
                request = make(submitted)
                submitted += 1
                session = Session(request=request, due=due, sent=time.time())
                if record_lag:
                    log.lags.append(session.sent - due)
                status, payload, rtt = http.call(
                    "POST",
                    "/attacks",
                    body=request.body,
                    headers={
                        "Content-Type": "application/json",
                        "X-Client-Id": request.client,
                    },
                )
                log.submit_rtts.append(rtt)
                log.sessions.append(session)
                if status == 202:
                    session.session_id = payload["id"]
                    session.next_poll = session.sent + max(
                        poll_interval, first_poll.delay(request.attack)
                    )
                    in_flight[session.session_id] = session
                else:
                    session.refused = status
                continue
        elif not log.closed_at:
            log.closed_at = now
            drain_deadline = now + DRAIN_TIMEOUT
        # a poll started now would still hold the connection when the next
        # submission falls due, making the generator late: leave it free
        imminent = bool(due is not None and log.poll_rtts and due - now < log.poll_rtts[-1])
        if in_flight and not imminent:
            session = min(in_flight.values(), key=lambda s: s.next_poll)
            if session.next_poll <= now:
                status, payload, rtt = http.call(
                    "GET", f"/attacks/{session.session_id}"
                )
                log.poll_rtts.append(rtt)
                session.next_poll = time.time() + poll_interval
                if status != 200 or payload.get("state") in TERMINAL:
                    session.final = payload if status == 200 else {
                        "state": f"http-{status}"
                    }
                    del in_flight[session.session_id]
                    if session.done:
                        first_poll.observe(session)
                continue
        elif drain_deadline is not None and not in_flight:
            break
        if drain_deadline is not None and now > drain_deadline:
            break  # sessions still in flight stay unresolved: failed
        wake = min(
            ([] if imminent else [s.next_poll for s in in_flight.values()])
            + ([due] if due is not None else [])
            + [now + poll_interval]
        )
        if wake > now:
            time.sleep(wake - now)
    log.ended = time.time()
    return log


def open_phase(
    http: Http, requests: List, offsets: List[float], poll_interval: float = OPEN_POLL_INTERVAL
) -> PhaseLog:
    """Submit ``requests[i]`` at ``start + offsets[i]`` regardless of load."""
    log = PhaseLog(started=time.time())
    start = log.started

    def next_due(now, in_flight):
        index = len(log.sessions)
        return start + offsets[index] if index < len(offsets) else None

    return _run(
        http,
        next_due,
        lambda index: requests[index],
        lambda now, submitted: submitted >= len(offsets),
        log,
        record_lag=True,
        poll_interval=poll_interval,
    )


def closed_phase(http: Http, make, concurrency: int, seconds: float) -> PhaseLog:
    """Keep ``concurrency`` sessions in flight for ``seconds``."""
    log = PhaseLog(started=time.time())
    end = log.started + seconds
    return _run(
        http,
        lambda now, in_flight: now if in_flight < concurrency else None,
        make,
        lambda now, submitted: now >= end,
        log,
        record_lag=False,
        poll_interval=POLL_INTERVAL,
    )
