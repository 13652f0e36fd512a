"""Cluster tier configuration.

One :class:`ClusterConfig` describes the whole tier: how many worker
processes to run, the router's listen address, the supervision knobs
(heartbeat cadence, restart budget, backoff), and -- as one
:class:`~repro.serve.server.ServeConfig` -- the replica every worker
runs.  All workers build the *same* deterministic classifier (same
architecture, same seed), so a session produces identical scores no
matter which replica answers it.

A cluster worker *is* a ``repro-serve`` process, spawned with
:func:`worker_argv`, so every serve-layer behaviour (micro-batching,
admission, drain) is inherited rather than re-implemented, and its
settings travel through the same flag table serve parses them with.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional

from repro.serve.server import SERVE_FLAGS, ServeConfig, flag_argv


@dataclass
class ClusterConfig:
    """Everything needed to assemble a sharded serve tier."""

    workers: int = 2
    host: str = "127.0.0.1"
    port: int = 8870  # the router; workers take ephemeral loopback ports

    #: The replica every worker runs (its host, port, log, checkpoint
    #: and shared-cache fields are unused: the router sets those).
    serve: ServeConfig = field(default_factory=ServeConfig)

    #: Router-level shedding: refuse new submits while this many
    #: sessions are open tier-wide (``None`` disables).
    shed_open_sessions: Optional[int] = None

    # -- supervision ---------------------------------------------------
    heartbeat: float = 0.5  # seconds between worker health sweeps
    heartbeat_misses: int = 3  # consecutive failures before death
    max_restarts: int = 3  # per worker slot, over the tier's lifetime
    backoff: float = 0.5  # restart delay base; doubles per restart
    boot_timeout: float = 30.0  # seconds for a worker to become healthy

    # -- shared L2 cache tier ------------------------------------------
    #: Run a supervised shared-cache process (repro.cluster.cacheservice)
    #: and point every worker's TieredQueryCache at it.  Off by default:
    #: results are bit-identical either way, the shared tier only saves
    #: cross-replica forward passes.
    shared_cache: bool = False
    shared_cache_size: int = 65536  # entries in the L2 bounded LRU

    # -- durability and telemetry --------------------------------------
    checkpoint: Optional[str] = None  # router session ledger directory
    resume: bool = False
    log_path: Optional[str] = None  # cluster_event JSONL

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.heartbeat <= 0:
            raise ValueError("heartbeat must be positive")
        if self.heartbeat_misses < 1:
            raise ValueError("heartbeat_misses must be at least 1")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")
        if self.backoff < 0:
            raise ValueError("backoff must be non-negative")
        if self.shed_open_sessions is not None and self.shed_open_sessions < 1:
            raise ValueError("shed_open_sessions must be at least 1 (or None)")

    @classmethod
    def from_options(cls, options: Dict) -> "ClusterConfig":
        """A parsed command line: options naming a tier field configure
        the tier, all others the replicas."""
        tier = {f.name for f in fields(cls)}
        return cls(
            serve=ServeConfig(
                **{k: v for k, v in options.items() if k not in tier}
            ),
            **{k: v for k, v in options.items() if k in tier},
        )

    def manifest(self) -> dict:
        """The identity the router ledger pins (see ServeConfig.manifest)."""
        return self.serve.manifest("cluster")


def worker_argv(
    config: ClusterConfig, port: int, shared_cache: Optional[str] = None
) -> List[str]:
    """The ``repro-serve`` command line for one worker replica.

    Carries every replica setting that differs from serve's default,
    through the flag table serve parses it back with.  ``shared_cache``
    is the ``HOST:PORT`` of the tier's L2 cache service; when given, the
    worker wraps its private cache in a
    :class:`~repro.runtime.cache.TieredQueryCache` pointed at it.
    """
    argv = [sys.executable, "-m", "repro.serve", "--port", str(port)]
    argv += flag_argv(config.serve, SERVE_FLAGS)
    if shared_cache:
        argv += ["--shared-cache", shared_cache]
    return argv
