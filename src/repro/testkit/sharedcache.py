"""Shared-cache oracles: prove the L2 tier changes cost, never results.

The two-tier query cache (DESIGN §15) must be invisible to the paper's
metrics: an attack served with the shared L2 enabled, disabled, warm,
or failing mid-run must produce a bit-identical
:class:`~repro.attacks.base.AttackResult` and per-session query count,
because cache hits -- local or remote -- are still counted queries and
the classifier is deterministic.  This module pins that claim from two
directions:

- :func:`shared_cache_sweep` -- the L2 table of the differential oracle
  (:mod:`repro.testkit.differential`): served rows whose broker cache is
  a :class:`~repro.runtime.cache.TieredQueryCache` over an
  :class:`InMemorySharedCache` (fresh, pre-warmed, fault-injected after
  a few operations, or dead from the first), each required to match the
  private-cache served run exactly.  The warm rows also prove the tier
  *works*: the second run over a warmed tier must hit it.
- :func:`live_shared_cache_smoke` -- the CI tier smoke: a real
  2-worker cluster with ``--shared-cache``, the deterministic
  HARD_SEED session submitted until two distinct replicas have served
  it, every final query count checked against the uninterrupted golden
  count, and the cluster ``/metrics`` rollup required to report
  ``l2_hits > 0``.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from repro.runtime.cache import TieredQueryCache
from repro.testkit.differential import (
    Axis,
    DifferentialRunner,
    one_session_broker,
    toy_case,
)

#: The L2 behaviours the sweep proves equivalent to the private baseline.
L2_MODES = ("off", "fresh", "warm", "faulted", "dead")

#: Operations a ``faulted`` tier serves before failing mid-run.
FAIL_AFTER = 3


class InMemorySharedCache:
    """A dict-backed stand-in for the HTTP shared-cache client.

    Implements the same ``lookup``/``store`` contract as
    :class:`~repro.cluster.cacheservice.HttpSharedCacheClient`, plus
    deterministic fault injection: after ``fail_after`` successful
    operations (lookups + stores), every further operation raises
    :class:`OSError` -- exactly the transport-failure signal
    :class:`~repro.runtime.cache.TieredQueryCache` degrades on.
    ``fail_after=0`` is a dead L2 from the first round trip.
    """

    def __init__(self, fail_after: Optional[int] = None):
        self._store: Dict[bytes, np.ndarray] = {}
        self._lock = threading.Lock()
        self.fail_after = fail_after
        self.operations = 0
        self.hits = 0
        self.misses = 0
        self.stored = 0

    def _tick(self) -> None:
        if self.fail_after is not None and self.operations >= self.fail_after:
            raise OSError("injected L2 transport failure")
        self.operations += 1

    def lookup(self, keys: Iterable[bytes]) -> Dict[bytes, np.ndarray]:
        with self._lock:
            self._tick()
            found: Dict[bytes, np.ndarray] = {}
            for key in keys:
                scores = self._store.get(key)
                if scores is None:
                    self.misses += 1
                else:
                    self.hits += 1
                    found[key] = np.array(scores, copy=True)
            return found

    def store(self, entries: Mapping[bytes, np.ndarray]) -> None:
        with self._lock:
            self._tick()
            for key, scores in entries.items():
                self._store[key] = np.array(scores, copy=True)
                self.stored += 1


def tiered_broker_factory(shared: InMemorySharedCache) -> Callable:
    """A served row's ``broker``, wiring in an L2.

    Wraps the cell's private :class:`QueryCache` (the L1) in a
    :class:`TieredQueryCache` over ``shared``.  Uncached cells stay
    uncached -- no L1 means no tier to promote into.  The tier has no
    cooldown, so a failing L2 is probed again on every batch: the most
    adversarial setting for the degraded path (every evaluation
    re-probes and re-fails).
    """

    def factory(classifier, cache):
        tiered = (
            None if cache is None else TieredQueryCache(cache, shared, cooldown=0.0)
        )
        return one_session_broker(classifier, tiered)

    return factory


def shared_cache_sweep(
    seeds: Iterable[int] = range(12),
    budget: int = 40,
    modes: Sequence[str] = L2_MODES,
) -> Dict:
    """Differential proof: every L2 mode matches the private-cache run.

    For each seed the private-cache served run is the reference; then
    per mode:

    - ``off``     -- plain private cache (control: equals the reference);
    - ``fresh``   -- an empty L2 per cell (write-through, no hits);
    - ``warm``    -- one L2 shared by *two* runs of the cell: the first
      warms it, the second must serve L1 misses from it (``warm_hits >
      0`` proves cross-session sharing) and still match;
    - ``faulted`` -- the L2 dies after :data:`FAIL_AFTER` operations,
      mid-run, and the cell silently degrades;
    - ``dead``    -- the L2 fails from the very first round trip.

    Returns a JSON-safe report; ``report["ok"]`` requires zero
    divergences *and* nonzero warm hits.
    """
    unknown = set(modes) - set(L2_MODES)
    if unknown:
        raise ValueError(f"unknown L2 modes: {sorted(unknown)}")
    warm: List[InMemorySharedCache] = []

    def warming() -> InMemorySharedCache:
        warm.append(InMemorySharedCache())
        return warm[-1]

    def tiered(make: Callable[[], InMemorySharedCache]) -> Callable:
        """A broker tiered over the L2 ``make()`` returns for its cell."""
        return lambda classifier, cache: tiered_broker_factory(make())(
            classifier, cache
        )

    rows = {
        "off": None,
        "fresh": tiered(InMemorySharedCache),
        # a seed's rows run in table order: warm(2) reads the tier its
        # warm(1) just filled
        "warm(1)": tiered(warming),
        "warm(2)": tiered(lambda: warm[-1]),
        "faulted": tiered(lambda: InMemorySharedCache(fail_after=FAIL_AFTER)),
        "dead": tiered(lambda: InMemorySharedCache(fail_after=0)),
    }
    table = {"private": Axis("served", cached=True)}
    for name, broker in rows.items():
        if name.split("(")[0] in modes:
            table[name] = Axis(
                "served", cached=True, broker=broker, reference="private"
            )
    seeds = list(seeds)
    report = DifferentialRunner(toy_case(), seeds, table, budget=budget).run()
    warm_hits = sum(shared.hits for shared in warm)
    return {
        "seeds": len(seeds),
        "cells": report.cells_run,
        "modes": list(modes),
        "divergences": [d.describe() for d in report.divergences],
        "warm_hits": warm_hits,
        "ok": report.ok and ("warm" not in modes or warm_hits > 0),
    }


# ----------------------------------------------------------------------
# live cluster smoke (CI)
# ----------------------------------------------------------------------


def live_shared_cache_smoke(
    workers: int = 2,
    max_submissions: int = 10,
    timeout: float = 120.0,
) -> Dict:
    """Real-tier proof: two replicas share hits, query counts stay golden.

    Boots a ``workers``-replica cluster with ``--shared-cache`` and
    submits the deterministic HARD_SEED session (golden final count
    from an uninterrupted private-cache single-worker run) repeatedly
    -- sequentially, each to completion -- until at least two distinct
    replicas have served it.  Every session must finish with exactly
    the golden query count (cache hits are still counted), and the
    cluster ``/metrics`` rollup must report ``l2_hits > 0``: the second
    replica's misses were answered by the first replica's
    write-through.  The tier's drain must then stop every process --
    workers and the ``l2cache`` service -- with exit code 0.
    """
    from repro.cluster.config import ClusterConfig
    from repro.cluster.router import ClusterHandle
    from repro.runtime.http import http_json
    from repro.serve.server import ServeConfig
    from repro.testkit.kill import (
        _cluster_submit,
        _wait_session,
        hard_cluster_spec,
    )

    spec = hard_cluster_spec()
    base = dict(
        port=0, heartbeat=0.2, backoff=0.2,
        serve=ServeConfig(height=6, width=6, num_classes=3, seed=1),
    )

    with ClusterHandle(ClusterConfig(workers=1, **base)) as tier:
        accepted = _cluster_submit(tier.address, spec)
        final = _wait_session(
            tier.address, accepted["id"],
            lambda p: p["state"] in ("done", "failed"), timeout,
        )
        golden = final["result"]["queries"]

    sessions: List[Dict] = []
    with ClusterHandle(
        ClusterConfig(workers=workers, shared_cache=True, **base)
    ) as tier:
        served_by = set()
        for _ in range(max_submissions):
            accepted = _cluster_submit(tier.address, spec)
            final = _wait_session(
                tier.address, accepted["id"],
                lambda p: p["state"] in ("done", "failed"), timeout,
            )
            sessions.append(
                {
                    "id": accepted["id"],
                    "worker": final["worker"],
                    "queries": final["result"]["queries"],
                }
            )
            served_by.add(final["worker"])
            if len(served_by) >= 2:
                break
        deadline = time.monotonic() + 10.0
        l2_hits = 0
        while time.monotonic() < deadline:
            _status, rollup = http_json(tier.address, "GET", "/metrics")
            cluster_cache = (rollup.get("cache") or {}).get("cluster") or {}
            l2_hits = cluster_cache.get("l2_hits", 0)
            if l2_hits > 0:
                break
            time.sleep(0.2)
        shared_slot = (rollup.get("shared_cache") or {}).get("slot")
        exit_codes = tier.drain()["exit_codes"]

    counts_golden = all(s["queries"] == golden for s in sessions)
    clean_exit = all(code == 0 for code in exit_codes.values())
    return {
        "golden_queries": golden,
        "sessions": sessions,
        "distinct_workers": sorted(served_by),
        "l2_hits": l2_hits,
        "shared_cache_slot": shared_slot,
        "exit_codes": exit_codes,
        "identical": counts_golden,
        "ok": (
            counts_golden and len(served_by) >= 2 and l2_hits > 0 and clean_exit
        ),
    }


def main(argv=None) -> int:
    """CI entry point: run a harness, print its verdict, gate on ``ok``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.testkit.sharedcache",
        description="shared L2 cache differential sweep and live tier smoke",
    )
    parser.add_argument(
        "--live", action="store_true",
        help="boot a real 2-worker tier with --shared-cache instead of "
        "the in-process differential sweep",
    )
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--seeds", type=int, default=12,
                        help="sweep seeds (in-process mode)")
    args = parser.parse_args(argv)
    if args.live:
        verdict = live_shared_cache_smoke(workers=args.workers)
    else:
        verdict = shared_cache_sweep(seeds=range(args.seeds))
    json.dump(verdict, sys.stdout, indent=2)
    print()
    return 0 if verdict["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
