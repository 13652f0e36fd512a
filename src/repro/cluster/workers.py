"""Worker replicas: ``repro-serve`` subprocesses under supervision.

A cluster worker is not a new kind of server -- it is the existing
single-process :mod:`repro.serve` stack, spawned as a child process on a
loopback port.  Each worker therefore owns a frozen-or-eval model
replica, its own :class:`~repro.serve.broker.MicroBatchBroker`, its own
:class:`~repro.runtime.cache.QueryCache`, and paper-faithful per-session
accounting, all unchanged.  What this module adds is the process
plumbing the router needs: spawn with the right command line and
``PYTHONPATH``, health-check over HTTP, and terminate/kill.

Workers are intentionally stateless across restarts (no per-worker
checkpoint): the durable record of open sessions is the *router's*
ledger, which survives any worker's death and the tier's own restart.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import time
from typing import Dict, Optional, Tuple

from repro.cluster.config import ClusterConfig, worker_argv
from repro.runtime.http import http_json

#: Worker lifecycle states, as the supervisor sees them.
BOOTING = "booting"
LIVE = "live"
DEAD = "dead"
STOPPED = "stopped"


def free_port(host: str = "127.0.0.1") -> int:
    """An OS-assigned free TCP port (momentarily bound, then released)."""
    with socket.socket() as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


class WorkerProcess:
    """One supervised worker slot: a name, a port, and a child process.

    The slot outlives any single process: a crashed worker is respawned
    into the same slot (same name, same port), keeping the router's
    bookkeeping stable across restarts.
    """

    def __init__(
        self,
        name: str,
        port: int,
        config: ClusterConfig,
        argv_builder=None,
    ):
        self.name = name
        self.port = port
        self.config = config
        #: Optional ``(config, port) -> argv`` override.  The default is
        #: :func:`worker_argv` (a ``repro-serve`` replica); the shared
        #: cache service passes its own builder so it can reuse this
        #: slot's spawn/health/terminate plumbing and the supervisor's
        #: restart policy unchanged.
        self.argv_builder = argv_builder if argv_builder is not None else worker_argv
        self.proc: Optional[subprocess.Popen] = None
        self.state = STOPPED
        self.restarts = 0  # respawns after a death (first spawn excluded)
        self.missed_heartbeats = 0
        self.next_spawn_at: Optional[float] = None  # backoff deadline

    @property
    def address(self) -> Tuple[str, int]:
        return ("127.0.0.1", self.port)

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid if self.proc is not None else None

    def spawn(self) -> None:
        """Start (or restart) the child process for this slot."""
        env = dict(os.environ)
        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            self.argv_builder(self.config, self.port),
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        self.state = BOOTING
        self.missed_heartbeats = 0
        self.next_spawn_at = None

    def process_alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def healthy(self, timeout: float = 2.0) -> bool:
        """One heartbeat: the worker answers ``/healthz`` with 200.

        A draining worker answers 503 and is deliberately counted
        unhealthy -- routers must stop sending traffic to it (that is the
        point of the draining health state).
        """
        if not self.process_alive():
            return False
        try:
            status, _ = http_json(self.address, "GET", "/healthz", timeout=timeout)
        except OSError:
            return False
        return status == 200

    def wait_healthy(self, timeout: float) -> bool:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if not self.process_alive():
                return False
            if self.healthy(timeout=1.0):
                self.state = LIVE
                self.missed_heartbeats = 0
                return True
            time.sleep(0.05)
        return False

    def kill(self) -> None:
        """SIGKILL the child (crash simulation and last-resort cleanup).

        Deliberately leaves :attr:`state` alone: declaring death is the
        supervisor's call, via the same sweep that would catch a real
        crash -- which is exactly what kill() simulates.
        """
        if self.process_alive():
            self.proc.send_signal(signal.SIGKILL)
            self.proc.wait(timeout=10)

    def terminate(self, timeout: float = 30.0) -> Optional[int]:
        """SIGTERM the child and wait for its graceful exit.

        Returns the exit code, or ``None`` if there was no process.  A
        worker that ignores SIGTERM past ``timeout`` is killed.
        """
        if self.proc is None:
            self.state = STOPPED
            return None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        self.state = STOPPED
        return self.proc.returncode

    def describe(self) -> Dict:
        """JSON-safe slot status for the cluster ``/metrics`` plane."""
        return {
            "name": self.name,
            "port": self.port,
            "pid": self.pid,
            "state": self.state,
            "restarts": self.restarts,
        }
