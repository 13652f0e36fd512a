"""Attack sessions: steppable attacks with lifecycle and accounting.

A session wraps one ``(attack, image, true_class)`` job around the
generator-based :meth:`~repro.attacks.base.OnePixelAttack.steps`
protocol: instead of calling a classifier, the attack *yields* queries,
and whoever drives the session decides how those queries are executed.
That inversion is what lets the :class:`SessionManager` interleave many
sessions over one :class:`~repro.serve.broker.MicroBatchBroker` so their
queries coalesce into batched forward passes.

Query accounting is per-session and paper-faithful: a session counts
exactly the queries its attack marks ``counted`` (the sketch's clean-
image probe is not an attack submission) -- at pose time for scalar
queries, mirroring :class:`~repro.classifier.blackbox.
CountingClassifier`, and at *consumption* time for members of a
speculative :class:`~repro.core.stepping.QueryBatch` (the batch's
observer hook fires per member exactly when the attack charges it, so
speculative members the attack never uses are never counted).  The
final ``AttackResult.queries`` from the attack's own internal
accounting must agree -- a pinned invariant.

Two drive strategies:

- :meth:`SessionManager.run_cooperative` -- lock-step rounds: every
  active session contributes its pending query, the whole round is
  evaluated as one batch, every session advances.  Single-threaded and
  deterministic; batch size equals the number of live sessions.
- :meth:`SessionManager.start` -- one driving thread per session,
  queries funneled through ``broker.submit`` where the batch policy
  coalesces them.  This is what the HTTP server uses.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.attacks.base import AttackResult, OnePixelAttack
from repro.classifier.blackbox import QueryBudgetExceeded
from repro.core.stepping import Query, QueryBatch, StepRequest
from repro.runtime.events import RunLog, ensure_log
from repro.serve.broker import MicroBatchBroker

#: Session lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
#: Parked at a query boundary by a graceful drain; persistable and
#: restartable (see :meth:`SessionManager.drain`).
SUSPENDED = "suspended"
#: Terminated at a query boundary by ``DELETE /attacks/<id>``.
CANCELLED = "cancelled"
#: Terminated at a query boundary by its ``deadline_seconds`` budget.
EXPIRED = "expired"

#: States a session can never leave.
TERMINAL_STATES = (DONE, FAILED, CANCELLED, EXPIRED)

#: Finished sessions kept for polling before the manager forgets them.
DEFAULT_HISTORY = 1024

#: Reaped session ids remembered for 410 Gone responses (bounded so a
#: hostile client cycling ids cannot grow the tombstone set forever).
DEFAULT_TOMBSTONES = 4096


class AttackSession:
    """One attack in flight, driven query by query.

    Not thread-safe on its own: a session is only ever advanced by a
    single driver (one executor thread, or the cooperative loop).
    Reads of ``state``/``queries`` from other threads (the ``/metrics``
    endpoint) see a consistent-enough snapshot since both are plain
    attribute writes.
    """

    def __init__(
        self,
        session_id: str,
        attack: OnePixelAttack,
        image: np.ndarray,
        true_class: int,
        budget: Optional[int] = None,
        target_class: Optional[int] = None,
        client: Optional[str] = None,
        observer=None,
        spec: Optional[Dict] = None,
        batch_size: Optional[int] = None,
        deadline_seconds: Optional[float] = None,
    ):
        self.session_id = session_id
        self.attack = attack
        self.image = image
        self.true_class = true_class
        self.budget = budget
        self.target_class = target_class
        self.client = client
        #: Speculation window for batch-native stepping: ``None`` leaves
        #: the attack's own default in place, ``0`` forces the scalar
        #: protocol, ``N > 0`` allows QueryBatch yields of up to N.
        self.batch_size = batch_size
        #: JSON-safe request payload this session was built from; what a
        #: graceful drain persists so ``--resume`` can rebuild the
        #: session.  ``None`` for sessions created programmatically
        #: (those cannot be persisted).
        self.spec = spec
        #: Optional ``observer(query, scores)`` trace hook, called for
        #: every answered query before the attack resumes -- the serving
        #: side of the hook :func:`~repro.core.stepping.drive_steps`
        #: exposes for direct runs (see :mod:`repro.testkit.trace`).
        self.observer = observer
        self.state = QUEUED
        self.queries = 0  # counted submissions posed so far
        self.result: Optional[AttackResult] = None
        self.error: Optional[str] = None
        self.created_at = time.time()
        self.finished_at: Optional[float] = None
        self.pending: Optional[StepRequest] = None
        self._steps = None
        #: Wall-clock budget for the whole attack; enforced by the
        #: driver at query boundaries.  Armed into :attr:`deadline_at`
        #: (monotonic) when driving starts, so queue wait is free.
        self.deadline_seconds = deadline_seconds
        self.deadline_at: Optional[float] = None
        #: Set by ``DELETE /attacks/<id>`` (any thread); honored by the
        #: driver at the next query boundary.
        self.cancel_requested = False
        #: Last client poll (wall clock); what the TTL reaper ages.
        self.last_polled_at = self.created_at

    def touch(self) -> None:
        """Record a client poll, deferring the TTL reaper."""
        self.last_polled_at = time.time()

    def request_cancel(self) -> bool:
        """Flag the session for cancellation at its next query boundary.

        Safe from any thread (plain attribute write).  Returns ``True``
        when the session was still live -- the driver will park it --
        and ``False`` when it had already reached a terminal state.
        """
        if self.state in TERMINAL_STATES:
            return False
        self.cancel_requested = True
        return True

    def lifecycle_verdict(self, now: Optional[float] = None) -> Optional[str]:
        """The terminal state a boundary check should park into, if any.

        Cancellation wins over expiry when both apply (the client asked
        first).  ``now`` is monotonic time, injectable for tests.
        """
        if self.state not in (QUEUED, RUNNING):
            return None
        if self.cancel_requested:
            return CANCELLED
        if self.deadline_at is not None:
            if (time.monotonic() if now is None else now) >= self.deadline_at:
                return EXPIRED
        return None

    def start(self) -> Optional[StepRequest]:
        """Prime the attack generator; returns the first request (if any)."""
        if self.state != QUEUED:
            raise RuntimeError(f"session {self.session_id} already {self.state}")
        self.state = RUNNING
        if self.deadline_seconds is not None:
            self.deadline_at = time.monotonic() + self.deadline_seconds
        kwargs = {}
        if self.batch_size is not None:
            kwargs["batch_size"] = self.batch_size
        self._steps = self.attack.steps(
            self.image,
            self.true_class,
            budget=self.budget,
            target_class=self.target_class,
            **kwargs,
        )
        return self._resume(lambda: next(self._steps))

    def advance(self, scores: np.ndarray) -> Optional[StepRequest]:
        """Answer the pending request; returns the next one (if any).

        For a pending :class:`QueryBatch` the answers are speculative:
        counting and the trace hook are deferred to the batch's observer,
        which the attack fires per member exactly as it consumes that
        member's answer -- so the observed stream and the session's
        query count stay in scalar order no matter how the batch was
        posed.
        """
        if self.state != RUNNING or self.pending is None:
            raise RuntimeError(f"session {self.session_id} has no pending query")
        if isinstance(self.pending, QueryBatch):
            self.pending.observer = self._note_batch_member
        elif self.observer is not None:
            self.observer(self.pending, scores)
        return self._resume(lambda: self._steps.send(scores))

    def _note_batch_member(self, query: Query, scores: np.ndarray) -> None:
        """Per-member consumption hook for batched stepping."""
        if query.counted:
            self.queries += 1
        if self.observer is not None:
            self.observer(query, scores)

    def _resume(self, step) -> Optional[StepRequest]:
        try:
            query = step()
        except StopIteration as stop:
            self.pending = None
            self._finish(stop.value)
            return None
        except BaseException as exc:
            self.pending = None
            self.fail(exc)
            raise
        self.pending = query
        # Scalar queries are counted at pose time (the classic
        # CountingClassifier boundary); batch members are counted at
        # consumption via _note_batch_member.
        if isinstance(query, Query) and query.counted:
            self.queries += 1
        return query

    def _finish(self, result: AttackResult) -> None:
        self.result = result
        self.state = DONE
        self.finished_at = time.time()

    def fail(self, exc: BaseException) -> None:
        """Record an abnormal end (driver error, broker shutdown)."""
        if self.state in (DONE, FAILED):
            return
        self.state = FAILED
        self.error = f"{type(exc).__name__}: {exc}"
        self.finished_at = time.time()
        if self._steps is not None:
            self._steps.close()

    def suspend(self) -> None:
        """Park the session at its current query boundary (drain path).

        The live generator cannot survive the process, so it is closed;
        what persists is the session's original request (:attr:`spec`).
        A restored session re-runs its attack from the start against the
        same deterministic model, so it re-derives the same query stream
        and finishes with exactly the query count an uninterrupted run
        would have charged -- :attr:`queries` here is the progress marker
        at suspension, not a resumption offset.
        """
        if self.state not in (QUEUED, RUNNING):
            return
        self.state = SUSPENDED
        self.pending = None
        if self._steps is not None:
            self._steps.close()
            self._steps = None

    def park(self, state: str) -> None:
        """Terminate at the current query boundary into ``state``.

        The generator is unwound by throwing
        :class:`~repro.classifier.blackbox.QueryBudgetExceeded` into its
        suspended yield -- the *same* exception, at the same program
        point, that a :class:`~repro.core.stepping.StepCounter` raises
        when a budget runs dry.  Every attack generator converts that
        unwind into its degraded result with ``queries`` taken from its
        own internal counter, so a session cancelled or expired after
        ``k`` charged queries reports exactly ``k`` and carries a result
        bit-identical to a budget-``k`` scalar run that never succeeded
        (the fidelity invariant; differentially verified by
        :mod:`repro.testkit.lifecycle`).
        """
        if self.state not in (QUEUED, RUNNING):
            return
        self.pending = None
        result = None
        if self._steps is not None:
            try:
                self._steps.throw(QueryBudgetExceeded(self.queries))
            except StopIteration as stop:
                result = stop.value
            except BaseException:
                result = None  # generator did not convert the unwind
            finally:
                self._steps.close()
                self._steps = None
        if isinstance(result, AttackResult):
            self.result = result
        self.state = state
        self.finished_at = time.time()

    def close(self) -> None:
        """Abandon the session, releasing generator resources."""
        if self.state == RUNNING:
            self.fail(RuntimeError("session closed"))

    def to_dict(self) -> Dict:
        """JSON-safe status view for the HTTP API."""
        payload: Dict = {
            "id": self.session_id,
            "attack": self.attack.name,
            "state": self.state,
            "queries": self.queries,
            "budget": self.budget,
            "created_at": self.created_at,
        }
        if self.deadline_seconds is not None:
            payload["deadline_seconds"] = self.deadline_seconds
        if self.cancel_requested and self.state not in TERMINAL_STATES:
            payload["cancel_requested"] = True
        if self.finished_at is not None:
            payload["finished_at"] = self.finished_at
        if self.error is not None:
            payload["error"] = self.error
        if self.result is not None:
            result = self.result
            payload["result"] = {
                "success": result.success,
                "queries": result.queries,
                "location": list(result.location) if result.location else None,
                "perturbation": (
                    None
                    if result.perturbation is None
                    else np.asarray(result.perturbation, dtype=np.float64).tolist()
                ),
                "adversarial_class": result.adversarial_class,
                "error": result.error,
            }
        return payload


class SessionManager:
    """Create, drive, and track attack sessions over one broker."""

    def __init__(
        self,
        broker: MicroBatchBroker,
        max_workers: int = 16,
        run_log: Optional[RunLog] = None,
        history: int = DEFAULT_HISTORY,
        step_batch: Optional[int] = None,
        session_ttl: Optional[float] = None,
        idle_ttl: Optional[float] = None,
    ):
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        if history < 0:
            raise ValueError("history must be non-negative")
        if session_ttl is not None and session_ttl <= 0:
            raise ValueError("session_ttl must be positive (or None)")
        if idle_ttl is not None and idle_ttl <= 0:
            raise ValueError("idle_ttl must be positive (or None)")
        self.broker = broker
        #: Default speculation window handed to new sessions: ``None``
        #: keeps the attacks' own (scalar) default, ``0`` pins the
        #: legacy scalar protocol (``--scalar-steps``), ``N > 0`` turns
        #: on batch-native stepping.
        self.step_batch = step_batch
        self.run_log = ensure_log(run_log)
        self._lock = threading.Lock()
        self._sessions: "Dict[str, AttackSession]" = {}
        self._finished_order: List[str] = []
        self._history = history
        self._next_id = 1
        self._draining = False
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="session"
        )
        #: TTL reaper policy: ``session_ttl`` ages terminal sessions out
        #: of the poll table (-> 410 Gone), ``idle_ttl`` cancels live
        #: sessions no client has polled.  ``None`` disables each sweep.
        self.session_ttl = session_ttl
        self.idle_ttl = idle_ttl
        self._reaped_ids: List[str] = []  # bounded 410 tombstones
        self._reaper: Optional[threading.Thread] = None
        self._reaper_halt = threading.Event()
        # lifecycle counters for /metrics
        self.cancelled = 0
        self.expired = 0
        self.reaped = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def create(
        self,
        attack: OnePixelAttack,
        image: np.ndarray,
        true_class: int,
        budget: Optional[int] = None,
        target_class: Optional[int] = None,
        client: Optional[str] = None,
        observer=None,
        spec: Optional[Dict] = None,
        session_id: Optional[str] = None,
        batch_size: Optional[int] = None,
        deadline_seconds: Optional[float] = None,
    ) -> AttackSession:
        """Register a new session.

        ``session_id`` lets checkpoint restoration re-create a persisted
        session under its original id (so clients polling across a server
        restart keep their handle); the id counter is advanced past any
        restored numeric id so fresh sessions never collide.

        ``batch_size`` overrides the manager-wide :attr:`step_batch`
        speculation window for this session (``None`` inherits it).
        """
        if batch_size is None:
            batch_size = self.step_batch
        with self._lock:
            if session_id is None:
                session_id = f"s{self._next_id}"
                self._next_id += 1
            else:
                if session_id in self._sessions:
                    raise ValueError(f"session id {session_id} already exists")
                if session_id.startswith("s") and session_id[1:].isdigit():
                    self._next_id = max(self._next_id, int(session_id[1:]) + 1)
            session = AttackSession(
                session_id,
                attack,
                image,
                true_class,
                budget=budget,
                target_class=target_class,
                client=client,
                observer=observer,
                spec=spec,
                batch_size=batch_size,
                deadline_seconds=deadline_seconds,
            )
            self._sessions[session_id] = session
        self.run_log.emit(
            "session_created",
            session=session_id,
            attack=attack.name,
            budget=budget,
            client=client,
        )
        return session

    def get(self, session_id: str) -> Optional[AttackSession]:
        with self._lock:
            return self._sessions.get(session_id)

    def start(self, session: AttackSession) -> Future:
        """Drive the session to completion on a worker thread."""
        return self._executor.submit(self.drive, session)

    def drive(self, session: AttackSession) -> AttackSession:
        """Run one session against the broker, blocking until it ends.

        During a drain the loop exits at the next query boundary -- the
        in-flight broker batch still completes and answers the pending
        query, but no further query is submitted -- leaving the session
        :data:`SUSPENDED` for persistence instead of failed.

        Cancellation and deadline expiry are enforced at the same
        boundary: the in-flight broker batch always settles (so
        co-batched sessions are never poisoned by one session's exit),
        then the verdict parks the session terminally with the exact
        query count charged at that boundary.
        """
        try:
            verdict = session.lifecycle_verdict()
            if verdict is not None:
                session.park(verdict)  # cancelled before it ever started
                request = None
            else:
                request = session.start()
            while request is not None:
                if self._draining:
                    session.suspend()
                    break
                verdict = session.lifecycle_verdict()
                if verdict is not None:
                    session.park(verdict)
                    break
                if isinstance(request, QueryBatch):
                    scores = self.broker.submit_many(request.images())
                else:
                    scores = self.broker.submit(request.image)
                request = session.advance(scores)
        except Exception as exc:
            session.fail(exc)
        finally:
            if session.state == SUSPENDED:
                self.run_log.emit(
                    "session_suspended",
                    session=session.session_id,
                    attack=session.attack.name,
                    queries=session.queries,
                )
            else:
                self._retire(session)
        return session

    def run_cooperative(
        self, sessions: Sequence[AttackSession]
    ) -> List[AttackSession]:
        """Drive sessions in deterministic lock-step rounds.

        Each round gathers every active session's pending request into
        one list -- a pending :class:`QueryBatch` contributes all its
        member images, a scalar query contributes one -- scores the
        whole round through
        :meth:`~repro.serve.broker.MicroBatchBroker.evaluate`, and
        advances each session with its slice of the answers.
        Single-threaded: results are bit-identical to driving each
        attack alone, and the round's model batch is the concatenation
        of every live session's pending work.
        """
        active: List[AttackSession] = []
        for session in sessions:
            verdict = session.lifecycle_verdict()
            if verdict is not None:
                session.park(verdict)
                self._retire(session)
            elif session.start() is not None:
                active.append(session)
            else:
                self._retire(session)
        while active:
            # the same per-round boundary check the threaded driver runs
            live: List[AttackSession] = []
            for session in active:
                verdict = session.lifecycle_verdict()
                if verdict is not None:
                    session.park(verdict)
                    self._retire(session)
                else:
                    live.append(session)
            active = live
            if not active:
                break
            spans: List[int] = []
            images: List[np.ndarray] = []
            for session in active:
                pending = session.pending
                if isinstance(pending, QueryBatch):
                    spans.append(len(pending))
                    images.extend(pending.images())
                else:
                    spans.append(1)
                    images.append(pending.image)
            answers = self.broker.evaluate(images)
            still: List[AttackSession] = []
            offset = 0
            for session, span in zip(active, spans):
                rows = answers[offset:offset + span]
                offset += span
                payload = (
                    np.asarray(rows)
                    if isinstance(session.pending, QueryBatch)
                    else rows[0]
                )
                try:
                    request = session.advance(payload)
                except Exception:
                    request = None  # session already failed in advance()
                if request is not None:
                    still.append(session)
                else:
                    self._retire(session)
            active = still
        return list(sessions)

    def shutdown(self) -> None:
        """Stop accepting work and release executor threads."""
        self.stop_reaper()
        self._executor.shutdown(wait=False)

    def drain(self) -> List[AttackSession]:
        """Gracefully park every live session; return the parked ones.

        Sets the draining flag (driver threads exit at their next query
        boundary, after the broker answers their in-flight query), waits
        for all drivers to finish, and cancels sessions still queued for
        a driver thread.  Returns every session left :data:`QUEUED` or
        :data:`SUSPENDED` -- the set a graceful shutdown persists.
        Idempotent; the manager accepts no new drives afterwards.
        """
        self.stop_reaper()
        self._draining = True
        self._executor.shutdown(wait=True, cancel_futures=True)
        with self._lock:
            return [
                session
                for session in self._sessions.values()
                if session.state in (QUEUED, RUNNING, SUSPENDED)
            ]

    # ------------------------------------------------------------------
    # TTL reaping
    # ------------------------------------------------------------------

    def reap(self, now: Optional[float] = None) -> Dict[str, int]:
        """One TTL sweep; returns ``{"reaped": n, "abandoned": m}``.

        Two ages are enforced (each ``None`` -> skipped):

        - terminal sessions unpolled for :attr:`session_ttl` seconds are
          dropped from the poll table entirely (subsequent polls get 410
          Gone via :meth:`was_reaped`), freeing their history slot;
        - live sessions unpolled for :attr:`idle_ttl` seconds --
          submitted and abandoned -- get a cancellation request, so
          their driver parks them at the next query boundary, their
          admission slot is released by the driver future's completion,
          and the next sweep reaps the terminal remains.

        ``now`` is wall-clock time, injectable for tests.
        """
        now = time.time() if now is None else now
        reaped: List[AttackSession] = []
        abandoned = 0
        with self._lock:
            for session in list(self._sessions.values()):
                idle_for = now - max(
                    session.last_polled_at, session.finished_at or 0.0
                )
                if session.state in TERMINAL_STATES:
                    if self.session_ttl is not None and idle_for >= self.session_ttl:
                        self._sessions.pop(session.session_id, None)
                        if session.session_id in self._finished_order:
                            self._finished_order.remove(session.session_id)
                        self._reaped_ids.append(session.session_id)
                        reaped.append(session)
                elif session.state in (QUEUED, RUNNING):
                    if (
                        self.idle_ttl is not None
                        and idle_for >= self.idle_ttl
                        and not session.cancel_requested
                    ):
                        session.cancel_requested = True
                        abandoned += 1
            del self._reaped_ids[:-DEFAULT_TOMBSTONES]
            self.reaped += len(reaped)
        for session in reaped:
            self.run_log.emit(
                "session_reaped",
                session=session.session_id,
                attack=session.attack.name,
                state=session.state,
                queries=session.queries,
                success=None if session.result is None else session.result.success,
                idle_seconds=now - session.last_polled_at,
            )
        return {"reaped": len(reaped), "abandoned": abandoned}

    def was_reaped(self, session_id: str) -> bool:
        """Whether an unknown id names a reaped session (-> 410 Gone)."""
        with self._lock:
            return session_id in self._reaped_ids

    def start_reaper(self, interval: float = 1.0) -> None:
        """Run :meth:`reap` on a daemon thread every ``interval`` seconds."""
        if interval <= 0:
            raise ValueError("reap interval must be positive")
        if self._reaper is not None:
            return
        self._reaper_halt.clear()

        def loop() -> None:
            while not self._reaper_halt.wait(interval):
                try:
                    self.reap()
                except Exception:  # the reaper must outlive any one sweep
                    pass

        self._reaper = threading.Thread(
            target=loop, name="session-reaper", daemon=True
        )
        self._reaper.start()

    def stop_reaper(self) -> None:
        if self._reaper is None:
            return
        self._reaper_halt.set()
        self._reaper.join(timeout=10.0)
        self._reaper = None

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def _retire(self, session: AttackSession) -> None:
        if session.state in (CANCELLED, EXPIRED):
            # mirrors the attack_summary shape: identity + final counts
            event = (
                "session_cancelled" if session.state == CANCELLED
                else "session_expired"
            )
            with self._lock:
                if session.state == CANCELLED:
                    self.cancelled += 1
                else:
                    self.expired += 1
            self.run_log.emit(
                event,
                session=session.session_id,
                attack=session.attack.name,
                queries=session.queries,
                budget=session.budget,
                deadline_seconds=session.deadline_seconds,
                success=None if session.result is None else session.result.success,
            )
        self.run_log.emit(
            "session_end",
            session=session.session_id,
            attack=session.attack.name,
            state=session.state,
            queries=session.queries,
            success=None if session.result is None else session.result.success,
            error=session.error,
        )
        with self._lock:
            self._finished_order.append(session.session_id)
            while len(self._finished_order) > self._history:
                stale = self._finished_order.pop(0)
                self._sessions.pop(stale, None)

    def lifecycle_stats(self) -> Dict:
        """Lifecycle counters and TTL policy for ``/metrics``."""
        with self._lock:
            return {
                "cancelled": self.cancelled,
                "expired": self.expired,
                "reaped": self.reaped,
                "session_ttl": self.session_ttl,
                "idle_ttl": self.idle_ttl,
            }

    def active_count(self) -> int:
        with self._lock:
            return sum(
                1
                for session in self._sessions.values()
                if session.state in (QUEUED, RUNNING)
            )

    def states(self) -> Dict[str, int]:
        """How many sessions sit in each lifecycle state."""
        with self._lock:
            totals: Dict[str, int] = {}
            for session in self._sessions.values():
                totals[session.state] = totals.get(session.state, 0) + 1
            return totals

    def query_counts(self) -> Dict[str, int]:
        """Per-session counted submissions, for ``/metrics``."""
        with self._lock:
            return {
                session_id: session.queries
                for session_id, session in self._sessions.items()
            }

    def list_sessions(self, limit: int = 100) -> List[Dict]:
        with self._lock:
            sessions = sorted(
                self._sessions.values(), key=lambda s: s.created_at, reverse=True
            )[:limit]
        return [session.to_dict() for session in sessions]
