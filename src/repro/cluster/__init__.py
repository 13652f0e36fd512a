"""repro.cluster -- sharded multi-worker serving for attack sessions.

A cluster is N ``repro-serve`` worker processes, each owning a frozen
model replica with its own micro-batch broker and query cache, behind a
front-end router that shards sessions across workers by consistent hash
of the session id.  The router supervises worker health (heartbeats,
crash detection, bounded restart with backoff), rebalances a dead
worker's open sessions onto survivors via a durable session ledger, and
aggregates per-worker metrics into a cluster-wide ``/metrics`` plane.

Entry points: ``repro cluster --workers N`` and
``repro-serve --cluster N``; in-process, use :class:`ClusterHandle`.

The exports below resolve on first use, so
``python -m repro.cluster.cacheservice`` (which boots before any worker)
never imports the router or the serve stack.
"""

import importlib

_EXPORTS = {
    "ClusterConfig": "repro.cluster.config",
    "worker_argv": "repro.cluster.config",
    "HashRing": "repro.cluster.hashing",
    "aggregate_worker_metrics": "repro.cluster.metrics",
    "merge_cache_stats": "repro.cluster.metrics",
    "merge_histograms": "repro.cluster.metrics",
    "ClusterHandle": "repro.cluster.router",
    "ClusterRouter": "repro.cluster.router",
    "ClusterSupervisor": "repro.cluster.router",
    "open_sessions_from_records": "repro.runtime.checkpoint",
    "run_cluster": "repro.cluster.router",
    "WorkerProcess": "repro.cluster.workers",
    "free_port": "repro.cluster.workers",
    "http_json": "repro.runtime.http",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(_EXPORTS[name]), name)
