"""The attack service: its routes, its settings and ``repro-serve``.

The serving stack as JSON endpoints on the shared front end
(:mod:`repro.runtime.http`):

========================  =====================================================
``POST /attacks``         submit an attack (see :mod:`repro.serve.protocol`);
                          returns ``202`` with the session id, ``429`` when
                          admission control or the per-client rate limiter
                          sheds the request
``GET /attacks``          recent sessions, newest first
``GET /attacks/{id}``     one session's status and (when done) its result;
                          ``410`` once the TTL reaper has swept it; a
                          read carrying :data:`SWEEP_HEADER` is not a
                          client poll and leaves the idle clock alone
``DELETE /attacks/{id}``  request cancellation; the driver parks the
                          session at its next query boundary (``202``,
                          idempotent; ``200`` when already terminal)
``GET /models``           architectures from :mod:`repro.models.registry`
                          plus the toy model, flagging which one is serving
``GET /healthz``          liveness
``GET /metrics``          broker batch-size histograms, queue depth, cache
                          hit rate, per-session query counts, admission and
                          rate-limit counters
========================  =====================================================

Request handlers never block on model work: ``POST /attacks`` hands the
session to the :class:`~repro.serve.sessions.SessionManager`'s worker
pool and returns immediately; clients poll ``GET /attacks/{id}``.

:data:`WORKER_FLAGS` declares the replica settings once: both
``repro-serve`` and ``repro cluster`` build their parsers from it, and
the cluster serialises each worker's command line back through it.
:class:`ServerHandle` runs a server on a background thread so tests, the
CI smoke check, and :mod:`examples.serve_clients` can start a real
server in-process and talk to it over a loopback socket.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.classifier.blackbox import NetworkClassifier
from repro.classifier.toy import SmoothLinearClassifier
from repro.models.registry import ARCHITECTURES, build_model
from repro.runtime.cache import QueryCache, normalized_cache_size
from repro.runtime.checkpoint import CheckpointStore, open_sessions_from_records
from repro.runtime.events import RunLog, ensure_log
from repro.runtime.http import FrontEndHandle, serve_until_signalled
from repro.serve.admission import AdmissionControl, OverloadPolicy, RateLimiter
from repro.serve.broker import BatchPolicy, MicroBatchBroker
from repro.serve.protocol import ProtocolError, decode_attack_request
from repro.serve.sessions import SessionManager

#: Request header the cluster router's terminal sweep sets on its reads.
#: Such a ``GET /attacks/{id}`` answers like a poll but does not count as
#: one, so it does not defer the ``--idle-ttl`` reaper.
SWEEP_HEADER = "X-Router-Sweep"


@dataclass
class ServeConfig:
    """Everything needed to assemble a serving stack."""

    host: str = "127.0.0.1"
    port: int = 8871
    model: str = "toy"  # "toy" or a registry architecture name
    height: int = 8
    width: int = 8
    num_classes: int = 4
    seed: int = 0
    max_batch_size: int = 32
    max_wait: float = 0.002
    cache_size: int = 4096
    max_sessions: int = 64
    max_workers: int = 16
    rate: float = 50.0  # per-client submissions per second
    burst: float = 20.0
    log_path: Optional[str] = None
    freeze: bool = False  # serve network models on the inference fast path
    dtype: Optional[str] = None  # "float32" casts network models for speed
    checkpoint: Optional[str] = None  # durable session store for graceful drain
    resume: bool = False  # restore persisted sessions on startup
    latency: float = 0.0  # simulated per-image model seconds (benchmarks)
    #: ``--scalar-steps``: pin sessions to the legacy one-query-at-a-time
    #: protocol instead of batch-native stepping (bit-identical results
    #: either way; this is the differential escape hatch).
    scalar_steps: bool = False
    #: ``--shared-cache HOST:PORT``: wrap the private query cache in a
    #: :class:`~repro.runtime.cache.TieredQueryCache` pointed at a
    #: shared L2 cache service (:mod:`repro.cluster.cacheservice`).
    #: Results are bit-identical with or without it; the shared tier
    #: only saves forward passes other replicas already paid.  ``None``
    #: keeps the cache private; requires ``cache_size > 0`` (a disabled
    #: cache has no L1 tier to promote shared hits into).
    shared_cache: Optional[str] = None
    #: Entries in the shared L2 LRU; only consulted by the cluster
    #: branch, which owns the cache service process.
    shared_cache_size: int = 65536
    #: Wall-clock deadline applied to submissions that omit
    #: ``deadline_seconds`` (``None`` leaves them unbounded).
    default_deadline: Optional[float] = None
    #: Hard cap on any requested ``deadline_seconds``; a request asking
    #: for more is rejected with 400.
    max_deadline: Optional[float] = None
    #: TTL reaper policy (see :class:`~repro.serve.sessions.
    #: SessionManager`): terminal sessions unpolled this long are
    #: dropped from the poll table (-> 410 Gone) ...
    session_ttl: Optional[float] = None
    #: ... and live sessions unpolled this long are cancelled.
    idle_ttl: Optional[float] = None
    reap_interval: float = 1.0
    #: Overload shedding watermarks: submissions get 503 + Retry-After
    #: when broker queue depth / active sessions reach these.
    shed_queue_depth: Optional[int] = None
    shed_sessions: Optional[int] = None
    shed_retry_after: float = 1.0

    def manifest(self, kind: str = "serve") -> Dict:
        """The model identity a checkpoint or ledger of ``kind`` pins;
        resuming under a different model would silently change every
        restored session's scores."""
        return {
            "kind": kind,
            "model": self.model,
            "height": self.height,
            "width": self.width,
            "num_classes": self.num_classes,
            "seed": self.seed,
        }


def _checked(kind, test, message: str):
    """An argparse ``type``: parse with ``kind``, then enforce ``test``."""

    def parse(text: str):
        value = kind(text)
        if not test(value):
            raise argparse.ArgumentTypeError(message)
        return value

    parse.__name__ = kind.__name__  # "invalid int value: 'x'"
    return parse


_nonnegative_int = _checked(int, lambda value: value >= 0, "must be >= 0")
_positive_int = _checked(int, lambda value: value >= 1, "must be >= 1")
_positive_float = _checked(float, lambda value: value > 0, "must be > 0")
_at_least_one = _checked(float, lambda value: value >= 1, "must be >= 1")

#: The replica settings, declared once as ``(flag, ServeConfig field,
#: argparse options)``; each flag's default is its field's.  Both
#: ``repro-serve`` and ``repro cluster`` add every row, so a tier
#: rejects exactly the values its workers would.
WORKER_FLAGS = (
    ("--model", "model", dict(
        choices=["toy"] + sorted(ARCHITECTURES),
        help="model to serve (default: toy SmoothLinearClassifier)",
    )),
    ("--height", "height", dict(type=int)),
    ("--width", "width", dict(type=int)),
    ("--classes", "num_classes", dict(type=int)),
    ("--seed", "seed", dict(type=int)),
    ("--batch-size", "max_batch_size", dict(type=int)),
    ("--max-wait", "max_wait", dict(
        type=float,
        help="seconds the oldest pending query may wait before a flush",
    )),
    ("--cache", "cache_size", dict(
        type=_nonnegative_int, help="query-cache entries (0 disables caching)",
    )),
    ("--freeze", "freeze", dict(
        action="store_true",
        help="serve network models on the inference fast path (folded "
        "batch norms, reused buffers); no-op for the toy model",
    )),
    ("--dtype", "dtype", dict(
        choices=["float32", "float64"],
        help="cast network models for inference (float32 is ~2x faster "
        "on CPU; scores differ from float64 in the last ulps)",
    )),
    ("--latency", "latency", dict(
        type=float,
        help="simulated per-image model seconds (benchmark knob: makes "
        "the toy model behave like a compute-bound replica)",
    )),
    ("--max-sessions", "max_sessions", dict(type=int)),
    ("--rate", "rate", dict(
        type=_positive_float, help="per-client submissions per second",
    )),
    ("--burst", "burst", dict(
        type=_at_least_one, help="per-client token-bucket capacity",
    )),
    ("--scalar-steps", "scalar_steps", dict(
        action="store_true",
        help="drive attacks with the legacy one-query-at-a-time stepping "
        "protocol instead of batch-native QueryBatch stepping "
        "(bit-identical results; differential escape hatch)",
    )),
    ("--default-deadline", "default_deadline", dict(
        type=_positive_float, metavar="SECONDS",
        help="wall-clock deadline applied to submissions that omit "
        "deadline_seconds; sessions past it park as 'expired' at their "
        "next query boundary with exact query counts",
    )),
    ("--max-deadline", "max_deadline", dict(
        type=_positive_float, metavar="SECONDS",
        help="hard cap on requested deadline_seconds (larger asks get 400)",
    )),
    ("--session-ttl", "session_ttl", dict(
        type=_positive_float, metavar="SECONDS",
        help="reap finished sessions unpolled this long (polls then get "
        "410 Gone; a cluster router settles them and closes their ledger "
        "records); default keeps them until history eviction",
    )),
    ("--idle-ttl", "idle_ttl", dict(
        type=_positive_float, metavar="SECONDS",
        help="cancel live sessions no client has polled for this long "
        "(abandoned submissions stop burning model time)",
    )),
    ("--reap-interval", "reap_interval", dict(
        type=_positive_float, metavar="SECONDS",
        help="cadence of the TTL reaper sweep (default 1s)",
    )),
    ("--shed-queue-depth", "shed_queue_depth", dict(
        type=_positive_int, metavar="N",
        help="shed new submissions with 503 + Retry-After while the "
        "broker queue holds >= N pending queries",
    )),
    ("--shed-sessions", "shed_sessions", dict(
        type=_positive_int, metavar="N",
        help="shed new submissions with 503 + Retry-After while >= N "
        "sessions are live (soft watermark below --max-sessions)",
    )),
    ("--shed-retry-after", "shed_retry_after", dict(
        type=_positive_float, metavar="SECONDS",
        help="Retry-After value sent with shed (503) responses",
    )),
)

#: What a replica is configured by: the shared rows plus ``--workers``,
#: the threads that run serve's sessions.  ``repro cluster`` spends that
#: flag name on its replica count, but its workers still get the value.
SERVE_FLAGS = WORKER_FLAGS + (
    ("--workers", "max_workers", dict(type=int, help="threads running sessions")),
)


def add_flags(parser: argparse.ArgumentParser, rows) -> None:
    for flag, field, options in rows:
        parser.add_argument(
            flag, dest=field, default=getattr(ServeConfig, field), **options
        )


def flag_argv(config: ServeConfig, rows) -> List[str]:
    """``config``'s non-default settings among ``rows``, as flags."""
    argv: List[str] = []
    for flag, field, options in rows:
        value = getattr(config, field)
        if value != getattr(ServeConfig, field):
            switch = options.get("action") == "store_true"
            argv += [flag] if switch else [flag, str(value)]
    return argv


class PerImageLatencyClassifier:
    """A classifier that charges a fixed wall-clock cost per image.

    Turns the toy model into a stand-in for a compute-bound replica:
    scoring N images costs N * latency seconds of model time no matter
    how they are batched.  Deliberately exposes no ``batch`` method --
    :func:`~repro.classifier.blackbox.batch_scores` then falls back to
    per-image calls, so the simulated cost scales with queries answered,
    which is what cluster scaling benchmarks need to measure (a
    per-*batch* cost would be amortised away by the broker and show no
    difference between one worker and four).
    """

    def __init__(self, inner, latency: float):
        self._inner = inner
        self.latency = float(latency)

    def __call__(self, image):
        time.sleep(self.latency)
        return self._inner(image)

    def __getattr__(self, name):
        if name == "batch":  # force the per-image batch_scores fallback
            raise AttributeError("batch")
        return getattr(self._inner, name)


def build_classifier(config: ServeConfig):
    """The model a config names: toy by default, registry otherwise.

    ``freeze`` and ``dtype`` select the inference fast path for network
    models (batch-norm folding, buffer reuse, optional float32 compute).
    They change per-query latency only -- never how many submissions a
    session is charged -- but frozen or float32 scores are merely
    float-tolerance-close to the default float64 eval path, so leave
    both off when serving runs pinned by bit-exact differential tests.
    The toy classifier has no network to freeze; both knobs are no-ops.
    """
    shape = (config.height, config.width, 3)
    if config.model == "toy":
        classifier = SmoothLinearClassifier(
            image_shape=shape, num_classes=config.num_classes, seed=config.seed
        )
    else:
        model = build_model(
            config.model, num_classes=config.num_classes, seed=config.seed
        )
        dtype = np.dtype(config.dtype) if config.dtype else None
        classifier = NetworkClassifier(model, dtype=dtype, freeze=config.freeze)
    if config.latency > 0:
        classifier = PerImageLatencyClassifier(classifier, config.latency)
    return classifier


class AttackServer:
    """The assembled serving stack behind the HTTP routes."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.run_log = ensure_log(
            RunLog(config.log_path) if config.log_path else None
        )
        self.classifier = build_classifier(config)
        cache_size = normalized_cache_size(config.cache_size)
        self.cache = QueryCache(cache_size) if cache_size is not None else None
        if self.cache is not None and config.shared_cache:
            # Lazy import: the serve layer stays cluster-free unless a
            # shared tier is actually configured.
            from repro.cluster.cacheservice import (
                HttpSharedCacheClient,
                parse_cache_address,
            )
            from repro.runtime.cache import TieredQueryCache

            address = parse_cache_address(config.shared_cache)
            self.cache = TieredQueryCache(
                self.cache, HttpSharedCacheClient(address)
            )
        self.broker = MicroBatchBroker(
            self.classifier,
            policy=BatchPolicy(
                max_batch_size=config.max_batch_size, max_wait=config.max_wait
            ),
            cache=self.cache,
            run_log=self.run_log,
        )
        self.sessions = SessionManager(
            self.broker,
            max_workers=config.max_workers,
            run_log=self.run_log,
            # Batch-native stepping by default: sessions speculate up to
            # one broker batch per step.  0 pins the legacy scalar path.
            step_batch=0 if config.scalar_steps else config.max_batch_size,
            session_ttl=config.session_ttl,
            idle_ttl=config.idle_ttl,
        )
        self.admission = AdmissionControl(config.max_sessions)
        self.rate_limiter = RateLimiter(rate=config.rate, burst=config.burst)
        self.overload = OverloadPolicy(
            max_queue_depth=config.shed_queue_depth,
            max_active=config.shed_sessions,
            retry_after=config.shed_retry_after,
        )
        self.checkpoint = (
            CheckpointStore(config.checkpoint) if config.checkpoint else None
        )
        self.draining = False
        self._stopped = False

    def start(self) -> None:
        self.broker.start()
        if self.config.session_ttl is not None or self.config.idle_ttl is not None:
            self.sessions.start_reaper(self.config.reap_interval)
        if self.config.resume:
            self.restore_sessions()

    def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        self.sessions.shutdown()
        self.broker.stop()
        self.run_log.close()

    # ------------------------------------------------------------------
    # graceful shutdown and resume
    # ------------------------------------------------------------------

    def drain_and_stop(self) -> Dict:
        """SIGTERM path: finish in-flight batches, persist open sessions.

        New submissions are rejected with 503 from the moment the flag
        flips; session drivers park at their next query boundary (the
        broker still answers every query already in flight); parked and
        still-queued sessions are written to the checkpoint store; then
        the broker and telemetry shut down.  Returns a summary dict for
        the operator ("persisted 3/3 open sessions").

        Restored sessions re-run their deterministic attacks from the
        start on the next boot, so their final query counts are exactly
        what an uninterrupted run would have charged (see
        :meth:`~repro.serve.sessions.AttackSession.suspend`).
        """
        self.draining = True
        open_sessions = self.sessions.drain()
        persisted = skipped = 0
        if self.checkpoint is not None:
            self.checkpoint.reconcile_manifest(self.config.manifest())
            for session in open_sessions:
                if session.spec is None:
                    skipped += 1  # programmatic session: nothing to rebuild from
                    continue
                self.checkpoint.append(
                    {
                        "kind": "session",
                        "id": session.session_id,
                        "client": session.client,
                        "queries": session.queries,
                        "state": session.state,
                        "spec": session.spec,
                    }
                )
                persisted += 1
            self.checkpoint.close()
        summary = {
            "open": len(open_sessions),
            "persisted": persisted,
            "unpersistable": skipped,
        }
        self.run_log.emit("serve_drain", **summary)
        self.broker.stop()
        self.run_log.close()
        self._stopped = True
        return summary

    def restore_sessions(self) -> int:
        """Rebuild persisted sessions from the checkpoint and restart them.

        Each record's original request is re-decoded through the same
        protocol path as a live submission, re-created under its original
        session id (clients polling across the restart keep their
        handle), and handed to the driver pool.  The consumed records are
        then cleared -- the restored sessions now live in memory and will
        be re-persisted by the next graceful drain.  Returns the number
        of sessions restored.
        """
        if self.checkpoint is None:
            return 0
        self.checkpoint.reconcile_manifest(self.config.manifest())
        records, _truncated = self.checkpoint.records()
        by_id = open_sessions_from_records(records)  # latest drain wins per id
        restored = 0
        for session_id, record in by_id.items():
            try:
                request = decode_attack_request(record["spec"])
            except ProtocolError as exc:
                self.run_log.emit(
                    "session_restore_failed", session=session_id, error=str(exc)
                )
                continue
            deadline = request.deadline_seconds
            if deadline is None:
                deadline = self.config.default_deadline
            session = self.sessions.create(
                request.attack,
                request.image,
                request.true_class,
                budget=request.budget,
                target_class=request.target_class,
                client=record.get("client"),
                spec=record["spec"],
                session_id=session_id,
                deadline_seconds=deadline,
            )
            self.sessions.start(session)
            self.run_log.emit(
                "session_restored",
                session=session_id,
                attack=request.attack_name,
                queries_at_suspend=record.get("queries"),
            )
            restored += 1
        if by_id:
            self.checkpoint.clear_records()
        return restored

    # ------------------------------------------------------------------
    # route handlers: (status, payload)
    # ------------------------------------------------------------------

    def handle_submit(
        self, body: bytes, client: str, session_id: Optional[str] = None
    ) -> Tuple[int, Dict]:
        """Accept one attack submission.

        ``session_id`` lets a trusted upstream (the cluster router) pin
        the session's id so its own sharding and rebalance bookkeeping
        stay authoritative; a duplicate id is a 409 conflict.
        """
        if self.draining:
            return 503, {"error": "server is draining for shutdown"}
        shed_reason = self.overload.should_shed(
            self.broker.queue_depth, self.sessions.active_count()
        )
        if shed_reason is not None:
            return 503, {
                "error": f"overloaded: {shed_reason}",
                "retry_after": self.overload.retry_after,
            }
        if not self.rate_limiter.allow(client):
            return 429, {"error": "rate limit exceeded", "retry_after": 1}
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return 400, {"error": f"invalid JSON body: {exc}"}
        try:
            request = decode_attack_request(payload)
        except ProtocolError as exc:
            return exc.status, {"error": str(exc)}
        deadline = request.deadline_seconds
        if deadline is None:
            deadline = self.config.default_deadline
        elif (
            self.config.max_deadline is not None
            and deadline > self.config.max_deadline
        ):
            return 400, {
                "error": (
                    f"deadline_seconds {deadline} exceeds the server maximum "
                    f"{self.config.max_deadline}"
                )
            }
        if not self.admission.try_acquire():
            return 429, {
                "error": "server at capacity",
                "active_sessions": self.admission.active,
                "retry_after": 1,
            }
        # From here the slot is held; every exit path must either hand
        # its release to the driver future or release it inline.
        try:
            session = self.sessions.create(
                request.attack,
                request.image,
                request.true_class,
                budget=request.budget,
                target_class=request.target_class,
                client=client,
                spec=payload,
                session_id=session_id,
                deadline_seconds=deadline,
            )
        except ValueError as exc:
            self.admission.release()
            return 409, {"error": str(exc)}
        except BaseException:
            self.admission.release()
            raise
        try:
            future = self.sessions.start(session)
        except Exception as exc:  # executor rejected the drive
            session.fail(exc)
            self.admission.release()
            return 503, {
                "error": f"could not start session: {exc}",
                "retry_after": self.overload.retry_after,
            }
        future.add_done_callback(lambda _: self.admission.release())
        return 202, {"id": session.session_id, "state": session.state}

    def handle_cancel(self, session_id: str) -> Tuple[int, Dict]:
        """``DELETE /attacks/<id>``: park the session at its next boundary.

        Cancellation is asynchronous and idempotent: the driver honors
        the flag at the next query boundary (after the in-flight broker
        batch settles, so co-batched sessions are unaffected), a second
        DELETE is a no-op, and DELETE on an already-terminal session
        returns its final status unchanged (200 rather than an error, so
        retrying clients converge).
        """
        session = self.sessions.get(session_id)
        if session is None:
            if self.sessions.was_reaped(session_id):
                return 410, {"error": f"session {session_id} was reaped"}
            return 404, {"error": f"no such session: {session_id}"}
        session.touch()
        if session.request_cancel():
            self.run_log.emit(
                "session_cancel_requested",
                session=session_id,
                queries=session.queries,
            )
            return 202, session.to_dict()
        return 200, session.to_dict()

    def handle_get_session(
        self, session_id: str, touch: bool = True
    ) -> Tuple[int, Dict]:
        """One session's status; ``touch=False`` reads without polling."""
        session = self.sessions.get(session_id)
        if session is None:
            if self.sessions.was_reaped(session_id):
                return 410, {"error": f"session {session_id} was reaped"}
            return 404, {"error": f"no such session: {session_id}"}
        if touch:
            session.touch()
        return 200, session.to_dict()

    def handle_list_sessions(self) -> Tuple[int, Dict]:
        return 200, {"sessions": self.sessions.list_sessions()}

    def handle_models(self) -> Tuple[int, Dict]:
        models = [
            {
                "name": "toy",
                "kind": "toy",
                "description": "SmoothLinearClassifier with locality structure",
            }
        ]
        for name in sorted(ARCHITECTURES):
            models.append(
                {
                    "name": name,
                    "kind": "network",
                    "description": ARCHITECTURES[name].__name__,
                }
            )
        for entry in models:
            entry["serving"] = entry["name"] == self.config.model
        return 200, {"models": models}

    def handle_metrics(self) -> Tuple[int, Dict]:
        return 200, {
            "broker": self.broker.stats(),
            "sessions": {
                "states": self.sessions.states(),
                "active": self.sessions.active_count(),
                "query_counts": self.sessions.query_counts(),
            },
            # top-level gauges: what a load balancer or the cluster
            # router needs without digging through nested documents
            "sessions_in_flight": self.sessions.active_count(),
            "broker_queue_depth": self.broker.queue_depth,
            "admission": self.admission.stats(),
            "rate_limiter": self.rate_limiter.stats(),
            "overload": self.overload.stats(),
            "lifecycle": {
                **self.sessions.lifecycle_stats(),
                "shed": self.overload.shed,
            },
        }

    def route(
        self,
        method: str,
        path: str,
        body: bytes,
        client: str,
        session_id: Optional[str] = None,
        touch: bool = True,
    ):
        if path == "/healthz" and method == "GET":
            if self.draining:
                return 503, {"status": "draining"}
            return 200, {"status": "ok", "model": self.config.model}
        if path == "/metrics" and method == "GET":
            return self.handle_metrics()
        if path == "/models" and method == "GET":
            return self.handle_models()
        if path == "/attacks" and method == "POST":
            return self.handle_submit(body, client, session_id=session_id)
        if path == "/attacks" and method == "GET":
            return self.handle_list_sessions()
        if path.startswith("/attacks/") and method == "GET":
            return self.handle_get_session(path[len("/attacks/"):], touch)
        if path.startswith("/attacks/") and method == "DELETE":
            return self.handle_cancel(path[len("/attacks/"):])
        if path in ("/healthz", "/metrics", "/models", "/attacks") or path.startswith(
            "/attacks/"
        ):
            return 405, {"error": f"method {method} not allowed on {path}"}
        return 404, {"error": f"no such endpoint: {path}"}


    def http_route(
        self, method: str, path: str, headers: Dict[str, str], body: bytes
    ) -> Tuple[int, Dict]:
        """:meth:`route` as the shared front end calls it."""
        return self.route(
            method,
            path,
            body,
            headers["x-client-id"],
            session_id=headers.get("x-session-id") or None,
            touch=SWEEP_HEADER.lower() not in headers,
        )


async def serve(server: AttackServer) -> None:
    """Run the server until cancelled or signalled; drain gracefully.

    SIGTERM and SIGINT trigger the graceful-shutdown path: the listening
    socket keeps accepting connections so clients get explicit 503s
    instead of connection refusals, in-flight broker batches complete,
    open sessions are persisted to the checkpoint store (when one is
    configured), and the coroutine returns normally so the process can
    exit 0.
    """

    async def drain() -> None:
        # Flip the 503 gate before the blocking drain so requests
        # racing the shutdown are rejected, not stalled.
        server.draining = True
        summary = await asyncio.get_running_loop().run_in_executor(
            None, server.drain_and_stop
        )
        print(
            f"repro-serve: drained; {summary['persisted']}/"
            f"{summary['open']} open sessions persisted"
        )

    server.start()
    try:
        await serve_until_signalled(
            server.http_route, server.config.host, server.config.port, drain
        )
    finally:
        server.stop()


class ServerHandle(FrontEndHandle):
    """A server running on a background thread, for in-process use.

    ``port=0`` binds an ephemeral port; read the resolved address from
    :attr:`address` after :meth:`start` returns.
    """

    def __init__(self, config: ServeConfig):
        self.config = config
        self.server = AttackServer(config)
        super().__init__(
            self.server.http_route, config.host, config.port, name="serve-http"
        )

    def start(self) -> "ServerHandle":
        self.server.start()
        return super().start()

    def stop(self) -> None:
        super().stop()
        self.server.stop()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve one-pixel attacks over HTTP with micro-batched queries",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8871)
    add_flags(parser, SERVE_FLAGS)
    parser.add_argument("--log", default=None, dest="log_path",
                        help="JSONL telemetry file")
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help="durable checkpoint directory: SIGTERM/SIGINT drain in-flight "
        "batches and persist open sessions here instead of dropping them",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="restore sessions persisted in --checkpoint by a previous "
        "graceful shutdown and finish them (paper-faithful query counts)",
    )
    parser.add_argument(
        "--cluster",
        type=int,
        default=0,
        metavar="N",
        help="serve through a sharded tier of N worker replicas instead "
        "of a single process (same flags; see `repro cluster --help`)",
    )
    parser.add_argument(
        "--shared-cache",
        nargs="?",
        const="auto",
        default=None,
        metavar="HOST:PORT",
        help="consult a shared L2 query cache on L1 miss and write "
        "scored entries through (bit-identical results either way). "
        "Single-process serving needs the explicit HOST:PORT of a "
        "running repro.cluster.cacheservice; with --cluster the bare "
        "flag spawns and supervises the service automatically",
    )
    parser.add_argument(
        "--shared-cache-size",
        type=int,
        default=65536,
        dest="shared_cache_size",
        help="entries in the shared L2 bounded LRU (cluster mode)",
    )
    return parser


def main(argv=None) -> int:
    options = vars(build_parser().parse_args(argv))
    cluster_workers = options.pop("cluster")
    if cluster_workers:
        from repro.cluster.config import ClusterConfig
        from repro.cluster.router import run_cluster

        # serve's --host/--port/--log/--checkpoint/--resume/--shared-cache*
        # configure the router; everything else configures the replicas
        options.update(
            workers=cluster_workers,
            shared_cache=options["shared_cache"] is not None,
        )
        return run_cluster(ClusterConfig.from_options(options))
    if options["shared_cache"] == "auto":
        build_parser().error(
            "--shared-cache needs an explicit HOST:PORT outside --cluster "
            "(single-process serving does not spawn the cache service)"
        )
    config = ServeConfig(**options)
    server = AttackServer(config)
    print(
        f"repro-serve: {config.model} on http://{config.host}:{config.port} "
        f"(batch<={config.max_batch_size}, wait<={config.max_wait * 1000:.1f}ms)"
    )
    try:
        asyncio.run(serve(server))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
