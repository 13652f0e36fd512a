"""The plumbing serve and cluster share: one HTTP front end, one worker
flag table, one slot supervisor.

The front-end contract is checked on every service that runs on it
(``repro-serve``, the cluster router, the shared cache service); the
router is additionally held to answering while workers stall.  The flag
table is checked through both command lines and through
:func:`~repro.cluster.config.worker_argv`, and the supervisor through a
cache-service slot that boots but never becomes healthy.
"""

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import replace

import pytest

import repro
from repro.cluster import cacheservice
from repro.cluster.cacheservice import CacheServiceHandle, SharedCacheService
from repro.cluster.config import ClusterConfig, worker_argv
from repro.cluster.router import ClusterHandle, ClusterRouter, SessionEntry
from repro.cluster.router import build_parser as cluster_parser
from repro.cluster.workers import BOOTING, DEAD
from repro.runtime.http import MAX_BODY_BYTES, FrontEndHandle, http_json
from repro.serve.admission import RateLimiter
from repro.serve.server import ServeConfig, ServerHandle
from repro.serve.server import build_parser as serve_parser


def _raw(address, request: bytes):
    """Send raw request bytes; return (status, lower-cased headers)."""
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(request)
        response = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            response += chunk
    head = response.partition(b"\r\n\r\n")[0].decode("latin-1").split("\r\n")
    headers = {}
    for line in head[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return int(head[0].split()[1]), headers


def _serve_front_end(monkeypatch):
    handle = ServerHandle(
        ServeConfig(port=0, height=6, width=6, num_classes=3, seed=1)
    )
    # every submission is shed: the route's own 503 + retry_after
    monkeypatch.setattr(
        handle.server.overload, "should_shed", lambda depth, active: "test load"
    )
    return handle, b"POST /attacks HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}", "1.0"


def _router_front_end(monkeypatch):
    handle = ClusterHandle(ClusterConfig(workers=1, port=0))
    # no worker processes: with an empty ring every submit is 503 + retry_after
    monkeypatch.setattr(handle.router, "start", lambda: handle.router)
    return handle, b"POST /attacks HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}", "1"


class _SheddingCache(SharedCacheService):
    """The cache service never sheds load; this test route stands in."""

    def route(self, method, path, headers, body):
        if path == "/busy":
            return 503, {"error": "busy", "retry_after": 2}
        return super().route(method, path, headers, body)


def _cache_front_end(monkeypatch):
    monkeypatch.setattr(cacheservice, "SharedCacheService", _SheddingCache)
    return CacheServiceHandle(maxsize=16), b"GET /busy HTTP/1.1\r\n\r\n", "2"


@pytest.fixture(
    params=[_serve_front_end, _router_front_end, _cache_front_end],
    ids=["serve", "router", "cache"],
)
def front_end(request, monkeypatch):
    handle, busy_request, retry_after = request.param(monkeypatch)
    with handle:
        yield handle.address, busy_request, retry_after


def test_front_end_contract(front_end):
    address, busy_request, retry_after = front_end
    oversized = (
        f"POST /cache/store HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES + 1}"
        "\r\n\r\n"
    ).encode()
    assert _raw(address, oversized)[0] == 413  # refused before the body is read
    assert _raw(address, b"NONSENSE\r\n\r\n")[0] == 400
    assert http_json(address, "GET", "/no/such/path")[0] == 404
    status, headers = _raw(address, busy_request)
    assert status == 503
    assert headers["retry-after"] == retry_after


def test_router_answers_while_a_worker_stalls(monkeypatch):
    """Polls stuck on a worker that never answers must not starve the
    router: /healthz and a poll owned by another worker still answer."""
    stalled = socket.socket()
    stalled.bind(("127.0.0.1", 0))
    stalled.listen(32)  # the kernel accepts; nobody ever answers

    def answering_worker(method, path, headers, body):
        return 200, {"id": path.rsplit("/", 1)[-1], "state": "running"}

    polls = []
    with FrontEndHandle(answering_worker, "127.0.0.1", 0) as other:
        handle = ClusterHandle(ClusterConfig(workers=2, port=0))
        router = handle.router
        monkeypatch.setattr(router, "start", lambda: router)
        router.workers[0].port = stalled.getsockname()[1]
        router.workers[1].port = other.address[1]
        for index in range(9):
            owner = "w1" if index == 8 else "w0"
            session_id = f"c{index + 1}"
            router._sessions[session_id] = SessionEntry(session_id, {}, "t", owner)
        with handle:

            def poll(session_id):
                try:
                    polls.append(http_json(
                        handle.address, "GET", f"/attacks/{session_id}",
                        timeout=30,
                    ))
                except OSError:
                    pass

            stuck = [
                threading.Thread(target=poll, args=(f"c{i + 1}",), daemon=True)
                for i in range(8)
            ]
            for thread in stuck:
                thread.start()
            time.sleep(0.5)  # every stuck poll is now blocked on w0
            started = time.monotonic()
            assert http_json(handle.address, "GET", "/healthz", timeout=5)[0] == 200
            status, payload = http_json(
                handle.address, "GET", "/attacks/c9", timeout=5
            )
            elapsed = time.monotonic() - started
            assert status == 200 and payload["worker"] == "w1"
            assert elapsed < 1.0, elapsed
            assert polls == []  # the stalled polls really were stuck
            stalled.close()  # reset the stuck round trips
            for thread in stuck:
                thread.join(timeout=15)
    assert [status for status, _ in polls] == [503] * 8


@pytest.mark.slow
@pytest.mark.parametrize("module", ["repro.serve", "repro.cluster.cacheservice"])
def test_repeated_sigterm_still_exits_zero(module):
    """The router SIGTERMs a worker twice at tier drain (once to start
    every drain, once more while waiting on each); a request landing
    after the drain, during the process's own exit, must not turn a
    clean exit into -15."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    child = subprocess.Popen(
        [sys.executable, "-m", module, "--port", str(port)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 30
        while True:
            assert child.poll() is None and time.monotonic() < deadline
            try:
                if http_json(("127.0.0.1", port), "GET", "/healthz")[0] == 200:
                    break
            except OSError:
                time.sleep(0.05)
        while child.poll() is None:  # ask again and again until it is gone
            child.send_signal(signal.SIGTERM)
            time.sleep(0.002)
        assert child.wait(timeout=30) == 0
    finally:
        if child.poll() is None:
            child.kill()
            child.wait(timeout=10)


# ----------------------------------------------------------------------
# one flag table
# ----------------------------------------------------------------------

BAD_WORKER_VALUES = [
    ("--cache", "-1"),
    ("--rate", "0"),
    ("--burst", "0.5"),
    ("--default-deadline", "0"),
    ("--max-deadline", "-1"),
    ("--session-ttl", "0"),
    ("--idle-ttl", "0"),
    ("--reap-interval", "0"),
    ("--shed-retry-after", "0"),
    ("--shed-queue-depth", "0"),
    ("--shed-sessions", "0"),
]


@pytest.mark.parametrize("flag,value", BAD_WORKER_VALUES)
@pytest.mark.parametrize(
    "parser", [serve_parser, cluster_parser], ids=["serve", "cluster"]
)
def test_both_command_lines_reject_what_a_worker_rejects(parser, flag, value):
    with pytest.raises(SystemExit):
        parser().parse_args([flag, value])


def test_rate_limiter_rejects_a_bucket_that_refuses_every_submit():
    with pytest.raises(ValueError):
        RateLimiter(rate=0.0, burst=20.0)
    with pytest.raises(ValueError):
        RateLimiter(rate=50.0, burst=0.5)


def test_router_shed_watermark_must_admit_a_session():
    for bad in (0, -1):
        with pytest.raises(ValueError):
            ClusterConfig(shed_open_sessions=bad)
        with pytest.raises(SystemExit):
            cluster_parser().parse_args(["--shed-open-sessions", str(bad)])


def test_worker_argv_round_trips_through_the_serve_parser():
    replica = ServeConfig(
        model="resnet18", height=6, width=5, num_classes=3, seed=7,
        max_batch_size=8, max_wait=0.125, cache_size=0, max_sessions=9,
        max_workers=5, rate=7.5, burst=3.0, freeze=True, dtype="float32",
        latency=0.25, scalar_steps=True, default_deadline=4.0,
        max_deadline=8.0, session_ttl=2.5, idle_ttl=3.5, reap_interval=0.5,
        shed_queue_depth=64, shed_sessions=4, shed_retry_after=1.5,
    )
    argv = worker_argv(
        ClusterConfig(serve=replica), 9000, shared_cache="127.0.0.1:9100"
    )
    assert argv[1:3] == ["-m", "repro.serve"]
    options = vars(serve_parser().parse_args(argv[3:]))
    assert options.pop("cluster") == 0
    assert ServeConfig(**options) == replace(
        replica, port=9000, shared_cache="127.0.0.1:9100"
    )
    # defaults are not spelled out
    assert worker_argv(ClusterConfig(), 9000)[3:] == ["--port", "9000"]


def test_cluster_options_split_into_tier_and_replica():
    options = vars(cluster_parser().parse_args(
        ["--workers", "3", "--port", "0", "--seed", "4", "--shared-cache",
         "--heartbeat", "0.25", "--session-ttl", "9"]
    ))
    config = ClusterConfig.from_options(options)
    assert (config.workers, config.port, config.heartbeat) == (3, 0, 0.25)
    assert config.shared_cache is True
    assert config.serve == ServeConfig(seed=4, session_ttl=9.0)


def test_checkpoint_manifests_keep_their_identity_bytes():
    """Serve checkpoints and router ledgers written before both configs
    used ``ServeConfig.manifest`` must still reconcile."""
    identity = [("model", "toy"), ("height", 6), ("width", 6),
                ("num_classes", 3), ("seed", 1)]
    replica = ServeConfig(height=6, width=6, num_classes=3, seed=1)
    assert list(replica.manifest().items()) == [("kind", "serve")] + identity
    assert list(ClusterConfig(serve=replica).manifest().items()) == (
        [("kind", "cluster")] + identity
    )


# ----------------------------------------------------------------------
# one slot supervisor
# ----------------------------------------------------------------------


def test_restarted_cache_slot_that_never_answers_is_retried(monkeypatch):
    router = ClusterRouter(
        ClusterConfig(workers=1, shared_cache=True, boot_timeout=5.0, backoff=0.5)
    )
    slot = router.cache_service
    spawns = []

    def spawn():  # a process that starts and never answers /healthz
        spawns.append(time.monotonic())
        slot.state = BOOTING

    monkeypatch.setattr(slot, "spawn", spawn)
    monkeypatch.setattr(slot, "process_alive", lambda: True)
    monkeypatch.setattr(slot, "healthy", lambda timeout=None: False)
    slot.state, slot.next_spawn_at = DEAD, 0.0

    now = time.monotonic()
    router.supervise_once(now)
    assert (slot.state, slot.restarts, len(spawns)) == (BOOTING, 1, 1)
    router.supervise_once(now + 1.0)  # still inside boot_timeout
    assert slot.state == BOOTING
    router.supervise_once(now + 6.0)  # past it: dead, restart scheduled
    assert slot.state == DEAD
    deaths = router.run_log.of_type("cache_service_death")
    assert [event["reason"] for event in deaths] == ["boot timeout"]
    assert slot.next_spawn_at == pytest.approx(
        spawns[0] + 0.5 * 2 ** 1, abs=1.0
    )
    router.supervise_once(slot.next_spawn_at)  # after the backoff
    assert (slot.state, slot.restarts, len(spawns)) == (BOOTING, 2, 2)
    restarts = router.run_log.of_type("cache_service_restart")
    assert [event["restarts"] for event in restarts] == [1, 2]
