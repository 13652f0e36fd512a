"""Cluster scaling: aggregate session throughput, 4 workers vs. 1.

The cluster claim: when the model is compute-bound, a single serve
process serializes every session's queries through one model lock, so
adding worker *processes* -- each with its own replica -- multiplies
aggregate session throughput.

The workload is deliberately uniform and independent: every session
attacks a *distinct* hard image (one the fixed-sketch attack never
cracks), so each runs exactly the full 288-query pair space and no two
sessions ever submit the same query -- the broker coalesces identical
in-flight images, so same-image sessions would share model passes and
fake the scaling number; the query cache is disabled too; and the
toy model is wrapped with a per-image latency
(:class:`~repro.serve.server.PerImageLatencyClassifier`), so scoring N
queries costs N * latency seconds of replica time no matter how the
broker batches them.  Total work is therefore fixed, deterministic, and
divisible only by adding replicas -- which is exactly what the benchmark
measures.

Session ids are router-generated (``c1``..``cN``), so the consistent
hash spread over 4 workers is deterministic: the worst-loaded worker
owns 5 of 16 sessions, bounding the ideal speedup at 3.2x.  The gate is
2.0x -- the ISSUE's acceptance floor, with headroom for scheduler noise.
"""

import time

from conftest import write_bench_result, write_result
from repro.cluster.config import ClusterConfig
from repro.cluster.router import ClusterHandle
from repro.runtime.http import http_json
from repro.serve.server import ServeConfig
from repro.testkit.kill import HARD_IMAGE_SEEDS, hard_cluster_spec

SESSIONS = 16
LATENCY = 0.002  # seconds of simulated replica time per query
HARD_QUERIES = 288


def _tier(workers):
    return ClusterConfig(workers=workers, port=0, serve=ServeConfig(
        height=6, width=6, num_classes=3, seed=1,
        latency=LATENCY, cache_size=0,  # cache off: work must not collapse
        max_sessions=SESSIONS + 4, max_workers=SESSIONS + 4,
        rate=1000.0, burst=float(SESSIONS + 4),
    ))


def _run_tier(workers):
    """Complete SESSIONS hard sessions; return (elapsed, finals, spread)."""
    import json

    specs = [
        json.dumps(hard_cluster_spec(seed)).encode()
        for seed in HARD_IMAGE_SEEDS[:SESSIONS]
    ]
    with ClusterHandle(_tier(workers)) as tier:
        address = tier.address
        started = time.perf_counter()
        accepted = []
        for spec_bytes in specs:
            status, payload = http_json(
                address, "POST", "/attacks", body=spec_bytes
            )
            assert status == 202, payload
            accepted.append(payload)
        finals = {}
        deadline = time.monotonic() + 600.0
        while len(finals) < SESSIONS and time.monotonic() < deadline:
            for payload in accepted:
                session_id = payload["id"]
                if session_id in finals:
                    continue
                status, state = http_json(
                    address, "GET", f"/attacks/{session_id}"
                )
                if status == 200 and state["state"] in ("done", "failed"):
                    finals[session_id] = state
            time.sleep(0.02)
        elapsed = time.perf_counter() - started
        spread = {}
        for payload in accepted:
            spread[payload["worker"]] = spread.get(payload["worker"], 0) + 1
    assert len(finals) == SESSIONS, "sessions did not finish"
    return elapsed, finals, spread


def test_cluster_scaling(results_dir):
    single_time, single_finals, _ = _run_tier(1)
    quad_time, quad_finals, spread = _run_tier(4)

    # correctness first: replicas must not change what sessions measure
    for finals in (single_finals, quad_finals):
        for state in finals.values():
            assert state["state"] == "done"
            assert state["result"]["queries"] == HARD_QUERIES

    single_rate = SESSIONS / single_time
    quad_rate = SESSIONS / quad_time
    speedup = quad_rate / single_rate
    worst = max(spread.values())

    lines = [
        "cluster scaling (aggregate session throughput, 4 workers vs 1, "
        f"{LATENCY * 1000:.0f}ms/query, cache off)",
        f"  sessions {SESSIONS}, {HARD_QUERIES} queries each "
        f"(uniform, deterministic)",
        f"  1 worker : {single_time:.2f}s ({single_rate:.2f} sessions/s)",
        f"  4 workers: {quad_time:.2f}s ({quad_rate:.2f} sessions/s), "
        f"spread {dict(sorted(spread.items()))}",
        f"  speedup: {speedup:.2f}x "
        f"(hash-spread ceiling {SESSIONS / worst:.2f}x)",
    ]
    write_result(results_dir, "cluster_scaling", "\n".join(lines))
    write_bench_result(
        results_dir,
        "cluster_scaling",
        [
            ("single_worker_sessions_per_s", single_rate, "sessions/s"),
            ("quad_worker_sessions_per_s", quad_rate, "sessions/s"),
            ("speedup", speedup, "x"),
            ("worst_worker_sessions", float(worst), "sessions"),
        ],
    )

    assert speedup >= 2.0, (
        f"4 workers gained only {speedup:.2f}x over 1 "
        f"(spread {spread}, ceiling {SESSIONS / worst:.2f}x)"
    )
