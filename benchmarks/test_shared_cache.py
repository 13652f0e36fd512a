"""Shared L2 cache: aggregate model forwards, 2 workers shared vs. private.

The shared tier's claim (DESIGN §15): when two replicas serve the same
deterministic session, the second replica's L1 misses are answered by
the first replica's write-through instead of fresh forward passes --
so the *aggregate* number of model forwards across the tier drops while
every per-session query count stays exactly golden (cache hits, local
or remote, are still counted queries).

The workload submits the one deterministic HARD_SEED session repeatedly
-- sequentially, each to completion -- until both replicas have served
it at least once.  Session ids are router-generated (``c1``..``cN``),
so the consistent-hash placement is deterministic and identical across
the private and shared runs: both runs serve the same session sequence
on the same replicas, and the only difference is where repeat queries
are answered.  Aggregate forwards are read from the cluster ``/metrics``
rollup's merged ``model_batch_sizes`` histogram (sum = mean x count).

Gate: the shared tier pays *strictly fewer* aggregate forwards than the
private baseline, with bit-identical per-session query counts.
"""

import time

from conftest import write_bench_result, write_result
from repro.cluster.config import ClusterConfig
from repro.cluster.router import ClusterHandle
from repro.runtime.http import http_json
from repro.serve.server import ServeConfig
from repro.testkit.kill import hard_cluster_spec

LATENCY = 0.002  # seconds of simulated replica time per model forward
MAX_SUBMISSIONS = 8
TIMEOUT = 300.0


def _tier(shared):
    return ClusterConfig(
        workers=2, port=0, shared_cache=shared, heartbeat=0.2, backoff=0.2,
        serve=ServeConfig(
            height=6, width=6, num_classes=3, seed=1, latency=LATENCY
        ),
    )


def _histogram_total(snapshot):
    """Total observations folded into a merged histogram (mean x count)."""
    return int(round(snapshot.get("mean", 0.0) * snapshot.get("count", 0)))


def _run_tier(shared):
    """Serve HARD_SEED on both replicas; return (sessions, forwards, l2)."""
    spec = hard_cluster_spec()
    with ClusterHandle(_tier(shared)) as tier:
        address = tier.address
        sessions = []
        served_by = set()
        for _ in range(MAX_SUBMISSIONS):
            import json

            status, accepted = http_json(
                address, "POST", "/attacks",
                body=json.dumps(spec).encode(),
            )
            assert status == 202, accepted
            deadline = time.monotonic() + TIMEOUT
            while time.monotonic() < deadline:
                status, state = http_json(
                    address, "GET", f"/attacks/{accepted['id']}"
                )
                if status == 200 and state["state"] in ("done", "failed"):
                    break
                time.sleep(0.05)
            assert state["state"] == "done", state
            sessions.append(
                {"worker": state["worker"],
                 "queries": state["result"]["queries"]}
            )
            served_by.add(state["worker"])
            if len(served_by) >= 2:
                break
        assert len(served_by) >= 2, "hash ring never used the second replica"
        _status, rollup = http_json(address, "GET", "/metrics")
        forwards = _histogram_total(
            rollup["broker"]["model_batch_sizes"]
        )
        cache = (rollup.get("cache") or {}).get("cluster") or {}
    return sessions, forwards, cache


def test_shared_cache_cuts_aggregate_forwards(results_dir):
    private_sessions, private_forwards, _ = _run_tier(shared=False)
    shared_sessions, shared_forwards, shared_cache = _run_tier(shared=True)

    # correctness first: the tier must not change what sessions measure
    golden = private_sessions[0]["queries"]
    for session in private_sessions + shared_sessions:
        assert session["queries"] == golden
    # deterministic placement: both runs served the same session sequence
    assert [s["worker"] for s in shared_sessions] == [
        s["worker"] for s in private_sessions
    ]
    assert shared_cache.get("l2_hits", 0) > 0, shared_cache

    saved = private_forwards - shared_forwards
    ratio = shared_forwards / private_forwards if private_forwards else 1.0

    lines = [
        "shared L2 cache (aggregate model forwards, 2 workers, "
        f"{len(shared_sessions)} identical sessions, {LATENCY * 1000:.0f}"
        "ms/forward)",
        f"  per-session queries: {golden} (identical in both tiers)",
        f"  private caches: {private_forwards} forwards",
        f"  shared  tier  : {shared_forwards} forwards "
        f"(l2_hits {shared_cache.get('l2_hits')}, "
        f"shared_hit_rate {shared_cache.get('shared_hit_rate', 0.0):.2f})",
        f"  saved: {saved} forwards ({1 - ratio:.0%})",
    ]
    write_result(results_dir, "shared_cache", "\n".join(lines))
    write_bench_result(
        results_dir,
        "shared_cache",
        [
            ("private_forwards", float(private_forwards), "forwards"),
            ("shared_forwards", float(shared_forwards), "forwards"),
            ("forwards_saved", float(saved), "forwards"),
            ("l2_hits", float(shared_cache.get("l2_hits", 0)), "hits"),
            (
                "shared_hit_rate",
                float(shared_cache.get("shared_hit_rate", 0.0)),
                "ratio",
            ),
        ],
    )

    assert shared_forwards < private_forwards, (
        f"shared tier paid {shared_forwards} forwards, private baseline "
        f"{private_forwards} -- the L2 saved nothing"
    )
