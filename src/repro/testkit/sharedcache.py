"""Shared-cache oracles: prove the L2 tier changes cost, never results.

The two-tier query cache (DESIGN §15) must be invisible to the paper's
metrics: an attack served with the shared L2 enabled, disabled, warm,
or failing mid-run must produce a bit-identical
:class:`~repro.attacks.base.AttackResult` and per-session query count,
because cache hits -- local or remote -- are still counted queries and
the classifier is deterministic.  This module pins that claim from two
directions:

- :func:`shared_cache_sweep` -- an in-process differential sweep riding
  :class:`~repro.testkit.differential.DifferentialRunner`'s ``served``
  path with its ``broker_factory`` hook: every cell's broker cache is
  wrapped in a :class:`~repro.runtime.cache.TieredQueryCache` over an
  :class:`InMemorySharedCache` (fresh, pre-warmed, fault-injected after
  N operations, or dead from the first), and every cell must match the
  private-cache baseline exactly.  The warm mode also proves the tier
  *works*: its second pass over a seed must score zero model-fresh
  queries beyond what L2 misses explain (``hits > 0``).
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
from repro.serve.broker import MicroBatchBroker
from repro.testkit.differential import (
    PATH_SERVED,
    Cell,
    result_fingerprint,
    toy_runner,
)

#: The L2 behaviours the sweep proves equivalent to the private baseline.
L2_MODES = ("off", "fresh", "warm", "faulted", "dead")


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


def tiered_broker_factory(
    shared: InMemorySharedCache, cooldown: float = 0.0
) -> Callable:
    """A ``DifferentialRunner`` ``broker_factory`` wiring in an L2.

    Wraps each served cell's private :class:`QueryCache` (the L1) in a
    :class:`TieredQueryCache` over ``shared``.  Uncached cells stay
    uncached -- no L1 means no tier to promote into.  ``cooldown=0``
    retries a failing L2 on every batch, the most adversarial setting
    for the degraded path (every evaluation re-probes and re-fails).
    """

    def factory(classifier, cache):
        tiered = (
            None
            if cache is None
            else TieredQueryCache(cache, shared, cooldown=cooldown)
        )
        return MicroBatchBroker(classifier, cache=tiered)

    return factory


def shared_cache_sweep(
    seeds: Iterable[int] = range(12),
    budget: int = 40,
    modes: Sequence[str] = L2_MODES,
    fail_after: int = 3,
) -> Dict:
    """Differential proof: every L2 mode matches the private baseline.

    For each seed, the private-cache ``served`` cell is the baseline;
    then per mode:

    - ``off``     -- plain private cache (control: equals baseline);
    - ``fresh``   -- an empty L2 per cell (write-through, no hits);
    - ``warm``    -- one L2 shared across *two* runs of the cell: the
      first warms it, the second must serve L1 misses from it
      (``warm_hits > 0`` proves cross-session sharing) and still match;
    - ``faulted`` -- the L2 dies after ``fail_after`` operations,
      mid-run, and the cell silently degrades;
    - ``dead``    -- the L2 fails from the very first round trip.

    Returns a JSON-safe report; ``report["ok"]`` requires zero
    divergences *and* nonzero warm hits.
    """
    unknown = set(modes) - set(L2_MODES)
    if unknown:
        raise ValueError(f"unknown L2 modes: {sorted(unknown)}")
    seeds = list(seeds)
    divergences: List[Dict] = []
    cells = 0
    warm_hits = 0

    def run_with(factory, seed: int):
        runner = toy_runner(
            seeds=[seed],
            budget=budget,
            paths=(PATH_SERVED,),
            cache_modes=(True,),
            broker_factory=factory,
        )
        result, _trace = runner.run_cell(
            Cell(seed=seed, path=PATH_SERVED, cached=True)
        )
        return result_fingerprint(result)

    for seed in seeds:
        baseline = run_with(None, seed)
        cells += 1
        observations: List = []
        if "off" in modes:
            observations.append(("off", run_with(None, seed)))
        if "fresh" in modes:
            observations.append(
                ("fresh", run_with(tiered_broker_factory(InMemorySharedCache()), seed))
            )
        if "warm" in modes:
            shared = InMemorySharedCache()
            factory = tiered_broker_factory(shared)
            observations.append(("warm(1)", run_with(factory, seed)))
            before = shared.hits
            observations.append(("warm(2)", run_with(factory, seed)))
            warm_hits += shared.hits - before
        if "faulted" in modes:
            observations.append(
                (
                    "faulted",
                    run_with(
                        tiered_broker_factory(
                            InMemorySharedCache(fail_after=fail_after)
                        ),
                        seed,
                    ),
                )
            )
        if "dead" in modes:
            observations.append(
                (
                    "dead",
                    run_with(
                        tiered_broker_factory(InMemorySharedCache(fail_after=0)),
                        seed,
                    ),
                )
            )
        for mode, observed in observations:
            cells += 1
            if observed != baseline:
                divergences.append(
                    {
                        "seed": seed,
                        "mode": mode,
                        "baseline": repr(baseline),
                        "observed": repr(observed),
                    }
                )
    return {
        "seeds": len(seeds),
        "cells": cells,
        "modes": list(modes),
        "divergences": divergences,
        "warm_hits": warm_hits,
        "ok": not divergences and ("warm" not in modes or warm_hits > 0),
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
