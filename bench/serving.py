"""The serve and cluster workloads: real server CLIs under generated load.

Every time reported -- set-up, session latencies, the closed phase's
window -- is at nominal host speed, scaled by the probes of each core
taken while it ran (:class:`measure.CoreProbes`; see ``README.md``).
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List

import loadgen
import workloads
from measure import (
    SETUPS,
    WORK,
    BenchError,
    CoreProbes,
    RunResult,
    Service,
    fingerprint,
    free_port,
    outcome,
    peak_rss_mb,
    percentile,
)
from tracing import nn_shares

#: Served sessions re-run directly against the model per run.
REPLAY_SAMPLES = 8
#: Generator lag (p90), as a share of the mean gap between arrivals,
#: above which an open-loop run is reported as suspect: below it a late
#: generator still offers the scheduled load.  Latency counts from the
#: scheduled time either way, so a late generator hides no stall, and
#: the run still reports its metrics: normal runs lag 0.2-0.3 ms, but
#: in an hour when neighbours loaded the host two of three ``serve_toy``
#: runs lagged 34 and 45 ms, and a run must not fail for what the host
#: did.
MAX_LAG_SHARE = 0.5
#: Closed-phase requests prepared per second of the phase, above any
#: throughput seen here; more are made on demand.
CLOSED_PREFETCH_RATE = 150


def _model_config(workload):
    from repro.serve.server import ServeConfig

    return ServeConfig(**workload.model)


def check_sessions(sessions: List[loadgen.Session]) -> List[str]:
    """Accounting invariants every resolved session must satisfy."""
    violations = []
    for session in sessions:
        if session.final is None or session.refused is not None:
            continue  # never resolved: counted as failed, not as wrong
        final = session.final
        name = f"{session.request.attack}#{session.request.index}"
        if final.get("state") != "done":
            violations.append(f"{name}: state {final.get('state')!r}, not 'done'")
            continue
        result = final.get("result") or {}
        if final.get("queries") != result.get("queries"):
            violations.append(
                f"{name}: queries {final.get('queries')} != result.queries "
                f"{result.get('queries')}"
            )
        if (result.get("queries") or 0) > session.request.budget:
            violations.append(f"{name}: {result.get('queries')} queries over budget")
    return violations


def sample(sessions, seed: int, count: int = REPLAY_SAMPLES) -> List[loadgen.Session]:
    """A seeded sample of the completed sessions, in submission order."""
    done = [session for session in sessions if session.done]
    picks = workloads.rng(seed, 99).choice(len(done), size=min(count, len(done)), replace=False)
    return [done[pick] for pick in sorted(picks)]


def replay(sessions, classifier) -> List[str]:
    """Re-run served sessions directly on ``classifier``.

    Each served result must equal, field for field (see
    :func:`measure.outcome`), what the attack's own generator reports
    when a plain synchronous driver answers every query -- batching,
    caching, threads and HTTP must not change a single outcome.
    """
    from repro.core.stepping import drive_steps
    from repro.serve.protocol import build_attack

    if not sessions:
        return ["no session to replay"]
    violations = []
    for session in sessions:
        request = session.request
        name = f"{request.client} {request.attack}#{request.index}"
        if not session.done:
            violations.append(f"{name}: ended {session.final or session.refused!r}")
            continue
        attack = build_attack(request.attack, request.params)
        direct = drive_steps(
            attack.steps(request.image, request.true_class, budget=request.budget),
            classifier,
        )
        got, want = outcome(session.final["result"]), outcome(direct)
        if got != want:
            violations.append(f"{name}: served {got} != direct {want}")
    return violations


def _summary(sessions) -> List:
    """Each session's outcome, in submission order, for the fingerprint."""
    return [
        [
            session.request.index,
            session.request.attack,
            outcome(session.final["result"]) if session.done else session.final,
        ]
        for session in sessions
    ]


def _server_argv(workload, port: int, trace_path) -> List[str]:
    if trace_path is None:
        return workloads.server_argv(workload, port)
    flags = list(workload.module_argv[1:])
    return [
        sys.executable, str(Path(__file__).with_name("traced_serve.py")),
        "--trace-out", str(trace_path), *flags, "--port", str(port),
    ]


def run(workload, seed: int, seconds: float, trace: bool, smoke: bool) -> RunResult:
    from repro.serve.server import build_classifier

    classifier = build_classifier(_model_config(workload))
    count = workloads.open_count(workload, seconds)
    if count < 1:
        raise BenchError(f"--seconds {seconds} leaves no open-phase arrivals")
    offsets = workloads.arrival_offsets(workload.open_rate, count, seed)
    warm_source, open_source, closed_source = workloads.sources(workload, seed, classifier)
    warm_requests = warm_source.prefetch(workload.warm_up)
    open_requests = open_source.prefetch(count)
    closed_seconds = seconds * (1 - workloads.OPEN_SHARE)
    closed_source.prefetch(int(closed_seconds * CLOSED_PREFETCH_RATE))
    replay_requests = workloads.replay_requests(workload, seed, classifier)
    for request in replay_requests:
        request.body  # encode before the server starts

    trace_path = WORK / f"trace-{workload.name}.json" if trace and not workload.cluster else None
    boots = []  # (wall start, seconds until ready)
    service = None
    # spans are raw times: a traced run takes no probes
    with CoreProbes(probing=not trace) as speed:
        try:
            for _ in range(1 if trace else SETUPS):
                if service is not None:
                    service.stop()
                port = free_port()
                http = loadgen.Http("127.0.0.1", port)
                service = Service(_server_argv(workload, port, trace_path), f"{workload.name}.log")
                started = time.time()
                boots.append((started, service.start(http.ready)))
            warm_log = loadgen.open_phase(http, warm_requests, [0.0] * len(warm_requests))
            open_log = loadgen.open_phase(http, open_requests, offsets)
            closed_log = loadgen.closed_phase(
                http, closed_source, workload.closed_sessions, closed_seconds
            )
            # after the measured phases, so it changes no metric but the
            # traced run's whole-server counters
            replay_log = loadgen.open_phase(http, replay_requests, [0.0] * len(replay_requests))
            status, server_metrics, _ = http.call("GET", "/metrics")
            if status != 200:
                raise BenchError(f"/metrics answered {status}")
            rss = peak_rss_mb(service.proc.pid)
        finally:
            if service is not None:
                service.stop()

    logs = (warm_log, open_log, closed_log, replay_log)
    sessions = [session for log in logs for session in log.sessions]
    # refused, unresolved and not-done sessions alike
    failed = sum(not session.done for session in sessions)
    violations = check_sessions(sessions)
    measured = warm_log.sessions + open_log.sessions + closed_log.sessions
    violations += replay(sample(measured, seed) + replay_log.sessions, classifier)
    if not any(session.done and session.final["result"]["success"] for session in replay_log.sessions):
        violations.append("no replay session succeeded: no adversarial result was compared")
    result = RunResult(
        attempted=len(sessions),
        failed=failed,
        violations=violations,
        fingerprint=fingerprint(
            {"open": _summary(open_log.sessions), "replay": _summary(replay_log.sessions)}
        ),
    )
    if violations:
        return result

    lag_p90 = percentile(open_log.lags, 90, smoke=smoke)
    max_lag = MAX_LAG_SHARE / workload.open_rate
    if lag_p90 > max_lag and not smoke:
        print(
            f"{workload.name}: warning: load generator ran {lag_p90 * 1e3:.1f} ms "
            f"late at p90 (more than {max_lag * 1e3:.1f} ms); the offered load "
            "was burstier than scheduled",
            file=sys.stderr,
        )
    if trace:
        result.metrics = _layers(workload, logs, server_metrics, trace_path, lag_p90, smoke)
        return result
    latencies = [
        s.latency * speed.factor(s.due, s.final["finished_at"]) * 1e3
        for s in open_log.sessions
        if s.done
    ]
    window_start, window_end = closed_log.started, closed_log.closed_at
    in_window = [
        s for s in closed_log.sessions
        if s.done and window_start <= s.final["finished_at"] <= window_end
    ]
    # seconds the window would have lasted on a host of nominal speed
    window = (window_end - window_start) * speed.factor(window_start, window_end)
    result.metrics = {
        "setup_s": statistics.median(
            booted * speed.factor(started, started + booted) for started, booted in boots
        ),
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p90_ms": percentile(latencies, 90, smoke=smoke),
        "queries_per_s": sum(s.final["queries"] for s in in_window) / window,
        "attacks_per_s": len(in_window) / window,
        "peak_rss_mb": rss,
    }
    return result


def _p50_ms(values) -> float:
    return percentile(values, 50) * 1e3 if values else 0.0


def _layers(workload, logs, server_metrics, trace_path, lag_p90, smoke) -> Dict[str, float]:
    """Per-layer metrics of a traced serve or cluster run.

    The server's counters and spans cover every session it ran, so
    everything here is taken over all phases, warm-up included.
    """
    submitted = [s for log in logs for s in log.sessions]
    sessions = [s for s in submitted if s.done]
    counted = sum(s.final["queries"] for s in sessions)
    submit_rtts = [rtt for log in logs for rtt in log.submit_rtts]
    poll_rtts = [rtt for log in logs for rtt in log.poll_rtts]
    load_wall = logs[-1].ended - logs[0].started
    refused = sum(1 for s in submitted if s.refused)
    broker = server_metrics["broker"]
    model_images = broker["model_batch_sizes"]["mean"] * broker["model_batch_sizes"]["count"]
    metrics = {
        "broker.batch_mean": broker["batch_sizes"]["mean"],
        "broker.model_batch_mean": broker["model_batch_sizes"]["mean"],
        "cache.forwards_per_query": model_images / broker["submitted"],
        "stepping.posed_per_counted": broker["submitted"] / counted,
        "admission.refused": refused,
        "loadgen.lag_p90_ms": lag_p90 * 1e3,
        "loadgen.sent": len(submitted),
    }
    if workload.cluster:
        cache = server_metrics["cache"]["cluster"]
        metrics.update({
            "cache.hit_rate": cache["hit_rate"],
            "cache.l2_hit_rate": cache["shared_hit_rate"],
            "cache.l2_rtt_mean_ms": cache["l2_rtt_ms"]["mean"],
            "router.submit_rtt_p50_ms": _p50_ms(submit_rtts),
            "router.poll_rtt_p50_ms": _p50_ms(poll_rtts),
            "router.rebalanced": server_metrics["cluster"]["rebalanced_sessions"],
        })
        return metrics
    with open(trace_path) as handle:
        traced = json.load(handle)
    spans = traced["spans"]

    def span(name, key="total_s"):
        return spans.get(name, {}).get(key, 0.0)

    classifier_s = span("classifier")
    classifier_calls = span("classifier", "count")
    classifier_images = span("classifier", "items")
    wait_s = traced["broker"]["wait_s"]
    # The client's view of every session (scheduled submit -> finished_at)
    # against the named layers: the HTTP front end and admission (up to
    # session creation), queueing for a session thread, the attack's own
    # steps, and the broker calls, forward included.  The session driver's
    # own loop is left out, so time no layer accounts for lowers the share.
    client_s = sum(s.final["finished_at"] - s.due for s in sessions)
    layers_s = (
        sum(s.final["created_at"] - s.due for s in sessions)
        + sum(traced["start_waits_s"])
        + span("attack.step")
        + span("broker.submit")
        + span("broker.submit_many")
    )
    cache = broker.get("cache") or {}
    metrics.update({
        "classifier.ms_per_image": classifier_s / classifier_images * 1e3,
        "classifier.images_per_call": classifier_images / classifier_calls,
        "classifier.busy_frac": classifier_s / load_wall,
        "broker.wait_ms_per_query": wait_s / traced["broker"]["images"] * 1e3,
        "broker.self_ms_per_flush": span("broker.evaluate", "self_s")
        / span("broker.evaluate", "count") * 1e3,
        "broker.queue_high_water": broker["queue_high_water"],
        "cache.hit_rate": cache.get("hit_rate", 0.0),
        "cache.repeat_query_frac": traced["classifier"]["repeats"]
        / max(traced["classifier"]["images"], 1),
        "attack.self_ms_per_query": span("attack.step") / counted * 1e3,
        "server.submit_rtt_p50_ms": _p50_ms(submit_rtts),
        "server.poll_rtt_p50_ms": _p50_ms(poll_rtts),
        "sessions.start_wait_p90_ms": percentile(traced["start_waits_s"], 90, smoke=smoke)
        * 1e3,
        "trace.overhead_frac": _overhead(traced, load_wall),
        "trace.coverage": layers_s / client_s,
    })
    metrics.update(nn_shares(spans))
    return metrics


def _overhead(traced, wall: float) -> float:
    """Estimated share of the run the spans themselves cost."""
    spans = sum(entry["count"] for entry in traced["spans"].values())
    return spans * traced["span_cost_s"] / wall
