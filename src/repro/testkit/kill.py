"""Kill-and-resume harness: prove checkpointed runs survive SIGKILL.

The other testkit pillars inject faults *inside* a live process; this one
kills the process itself.  A small, fully deterministic toy campaign
(:func:`toy_campaign`) runs as a subprocess (``python -m
repro.testkit.kill``) writing per-image records into a
:class:`~repro.runtime.checkpoint.CheckpointStore`; the parent
(:func:`kill_and_resume_campaign`) watches ``records.jsonl`` grow,
SIGKILLs the child mid-campaign -- no cleanup handlers run, exactly like
an OOM kill -- resumes the campaign, and compares the resumed summary
against an uninterrupted golden run.  Bit-identical is the bar: same
per-image successes, query counts, and aggregate summary.

Both the pytest suite and the CI smoke step drive this module, so the
crash scenario exercised in CI is byte-for-byte the one tested locally.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from typing import Dict, Optional

import numpy as np

from repro.attacks.fixed_sketch import FixedSketchAttack
from repro.classifier.toy import SmoothLinearClassifier
from repro.eval.runner import AttackRunSummary, attack_dataset
from repro.runtime.checkpoint import RECORDS_NAME


def _delayed(classifier, delay: float):
    """Wrap a classifier with a per-query sleep (child-side throttle)."""
    if delay <= 0:
        return classifier

    def slow(image):
        time.sleep(delay)
        return classifier(image)

    return slow


def toy_campaign(
    checkpoint: Optional[str] = None,
    images: int = 12,
    budget: int = 64,
    seed: int = 0,
    delay: float = 0.0,
) -> AttackRunSummary:
    """A deterministic miniature attack campaign.

    ``images`` random 8x8 images are attacked with the fixed-sketch
    baseline against the toy classifier; every input derives from
    ``seed``, so two runs with the same arguments are bit-identical --
    which is what lets the harness compare a killed-and-resumed run
    against an uninterrupted one.  ``delay`` throttles each query so the
    parent process has time to aim its SIGKILL.
    """
    classifier = SmoothLinearClassifier(
        image_shape=(8, 8, 3), num_classes=4, seed=seed
    )
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < images:
        image = rng.uniform(0.0, 1.0, size=(8, 8, 3))
        pairs.append((image, int(np.argmax(classifier(image)))))
    return attack_dataset(
        FixedSketchAttack(),
        _delayed(classifier, delay),
        pairs,
        budget=budget,
        checkpoint=checkpoint,
        base_seed=seed,
    )


def summary_fingerprint(summary: AttackRunSummary) -> Dict:
    """Everything two campaign runs must agree on, JSON-safe.

    Aggregates plus the full per-image ``(success, queries, error)``
    sequence -- a resumed run that merely matches the averages but
    shuffled per-image outcomes still fails the comparison.  Wall-clock
    timing is excluded (``include_timing=False``): it is a measurement,
    not a function of the results, so two bit-identical runs never agree
    on it.
    """
    return {
        "summary": summary.to_dict(include_timing=False),
        "per_image": [
            [result.success, result.queries, result.error]
            for result in summary.results
        ],
    }


def _record_count(records_path: str) -> int:
    """Complete records currently on disk (a torn tail does not count)."""
    try:
        with open(records_path, "rb") as handle:
            return handle.read().count(b"\n")
    except FileNotFoundError:
        return 0


def kill_and_resume_campaign(
    checkpoint_dir: str,
    kill_after: int = 3,
    images: int = 12,
    budget: int = 64,
    seed: int = 0,
    delay: float = 0.05,
    timeout: float = 60.0,
) -> Dict:
    """SIGKILL a checkpointed campaign mid-run, resume it, compare.

    Spawns :func:`toy_campaign` as a subprocess writing into
    ``checkpoint_dir``, SIGKILLs it once ``kill_after`` records are
    durable, resumes the campaign in-process, and returns::

        {
            "golden": <fingerprint of an uninterrupted run>,
            "resumed": <fingerprint of the killed-then-resumed run>,
            "records_at_kill": <completed units when the kill landed>,
            "identical": <golden == resumed>,
        }

    The child inherits the environment plus a ``PYTHONPATH`` entry for
    this source tree, so the helper works from a plain checkout.
    """
    import repro

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    args = [
        sys.executable,
        "-m",
        "repro.testkit.kill",
        "--checkpoint",
        checkpoint_dir,
        "--images",
        str(images),
        "--budget",
        str(budget),
        "--seed",
        str(seed),
        "--delay",
        str(delay),
    ]
    records_path = os.path.join(checkpoint_dir, RECORDS_NAME)
    child = subprocess.Popen(
        args, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )
    deadline = time.monotonic() + timeout
    try:
        while (
            _record_count(records_path) < kill_after
            and child.poll() is None
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        records_at_kill = _record_count(records_path)
        if child.poll() is None:
            child.send_signal(signal.SIGKILL)
    finally:
        child.wait(timeout=timeout)

    resumed = summary_fingerprint(
        toy_campaign(
            checkpoint=checkpoint_dir, images=images, budget=budget, seed=seed
        )
    )
    golden = summary_fingerprint(
        toy_campaign(checkpoint=None, images=images, budget=budget, seed=seed)
    )
    return {
        "golden": golden,
        "resumed": resumed,
        "records_at_kill": records_at_kill,
        "identical": golden == resumed,
    }


# ----------------------------------------------------------------------
# matrix-level kill-and-resume (campaign subsystem)
# ----------------------------------------------------------------------


def toy_matrix_spec(
    images: int = 4,
    budget: int = 64,
    seed: int = 7,
    latency: float = 0.0,
    campaign_id: str = "toy-2x2",
) -> Dict:
    """A 2x2 toy campaign spec payload (models x attacks), JSON-safe.

    ``latency`` is seconds per classifier query; the matrix harness uses
    it to slow the child down enough to aim a SIGKILL between durable
    records.  It never affects scores, so a throttled and an unthrottled
    run produce identical deterministic reports.
    """
    model = {"height": 6, "width": 6, "classes": 3}
    if latency > 0:
        model = {**model, "latency": latency}
    return {
        "campaign": {
            "id": campaign_id,
            "seed": seed,
            "images": images,
            "budget": budget,
        },
        "matrix": {
            "models": ["toy-smooth", "toy-linear"],
            "attacks": ["fixed", "random"],
            "datasets": ["toy"],
        },
        "model": {"toy-smooth": model, "toy-linear": model},
    }


def _matrix_record_count(root: str) -> int:
    """Durable records across the campaign root and every cell store."""
    import glob

    total = _record_count(os.path.join(root, RECORDS_NAME))
    pattern = os.path.join(root, "cells", "*", RECORDS_NAME)
    for records_path in glob.glob(pattern):
        total += _record_count(records_path)
    return total


def matrix_fingerprint(root: str) -> Dict:
    """Everything two campaign-matrix runs must agree on, JSON-safe.

    The deterministic Markdown report (``include_timing=False``) plus
    each cell's full per-image outcome sequence.  Timing, git revisions
    and timestamps are measurements of one execution and are excluded.
    """
    from repro.campaign.report import campaign_markdown
    from repro.runtime.checkpoint import CheckpointStore, load_matrix

    _, cells, _ = load_matrix(CheckpointStore(root))
    return {
        "report": campaign_markdown(root, include_timing=False),
        "cells": {
            cell_id: {
                "summary": record["summary"],
                "per_image": record["per_image"],
            }
            for cell_id, record in cells.items()
        },
    }


def kill_and_resume_matrix(
    workdir: str,
    kill_after: int = 6,
    images: int = 4,
    budget: int = 64,
    seed: int = 7,
    latency: float = 0.01,
    timeout: float = 120.0,
) -> Dict:
    """SIGKILL a ``repro campaign run`` mid-matrix, resume it, compare.

    Drives the real CLI as the child (``python -m repro.cli campaign
    run``) against a 2x2 toy matrix under ``<workdir>/campaign``,
    SIGKILLs it once ``kill_after`` durable records exist across the
    root and cell stores, resumes the campaign in-process, renders the
    deterministic report, and compares it against an uninterrupted
    golden run under ``<workdir>/golden``.  Returns::

        {
            "golden": <matrix fingerprint of the uninterrupted run>,
            "resumed": <matrix fingerprint of the killed-then-resumed run>,
            "records_at_kill": <durable records when the kill landed>,
            "identical": <golden == resumed>,
        }
    """
    from repro.campaign.runner import run_campaign
    from repro.campaign.spec import CampaignSpec

    import repro

    os.makedirs(workdir, exist_ok=True)
    payload = toy_matrix_spec(
        images=images, budget=budget, seed=seed, latency=latency
    )
    spec_path = os.path.join(workdir, "spec.json")
    with open(spec_path, "w") as handle:
        json.dump(payload, handle, indent=2)

    root = os.path.join(workdir, "campaign")
    golden_root = os.path.join(workdir, "golden")
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    child = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "campaign",
            "run",
            "--spec",
            spec_path,
            "--root",
            root,
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + timeout
    try:
        while (
            _matrix_record_count(root) < kill_after
            and child.poll() is None
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        records_at_kill = _matrix_record_count(root)
        if child.poll() is None:
            child.send_signal(signal.SIGKILL)
    finally:
        child.wait(timeout=timeout)

    # Resume (and golden-run) under the *same* spec the child used: the
    # matrix manifest pins the spec fingerprint, and the latency knob
    # only adds sleep -- scores, and therefore the deterministic report,
    # are unaffected.
    spec = CampaignSpec.from_dict(payload)
    run_campaign(spec, root)
    run_campaign(spec, golden_root)
    golden = matrix_fingerprint(golden_root)
    resumed = matrix_fingerprint(root)
    return {
        "golden": golden,
        "resumed": resumed,
        "records_at_kill": records_at_kill,
        "identical": golden == resumed,
    }


# ----------------------------------------------------------------------
# cluster-level worker kill and rebalance (cluster subsystem)
# ----------------------------------------------------------------------


#: Image seeds whose ``default_rng(seed)`` 6x6 image the fixed-sketch
#: attack never cracks against the seed-1 three-class toy model: every
#: one exhausts the full 288-query pair space.  Distinct hard images
#: matter when many sessions must do *independent* work -- the broker
#: coalesces identical in-flight queries, so sessions attacking the
#: same image would share model passes and fake any scaling number.
HARD_IMAGE_SEEDS = (
    1, 8, 20, 26, 28, 31, 43, 48, 54, 55, 57, 62, 69, 72, 85, 96,
)


def hard_cluster_spec(image_seed: int = 1) -> Dict:
    """A HARD_SEED attack submission, as a wire-format spec.

    Every ``image_seed`` from :data:`HARD_IMAGE_SEEDS` yields a session
    that deterministically runs exactly 288 queries: long-lived enough
    to kill a worker under, with a single golden final query count to
    differential-check against.
    """
    image = np.random.default_rng(image_seed).random((6, 6, 3))
    classifier = SmoothLinearClassifier(
        image_shape=(6, 6, 3), num_classes=3, seed=1
    )
    return {
        "attack": "fixed",
        "image": image.tolist(),
        "true_class": int(np.argmax(classifier(image))),
        "budget": 100000,
    }


def _cluster_submit(address, spec: Dict) -> Dict:
    from repro.runtime.http import http_json

    status, payload = http_json(
        address, "POST", "/attacks", body=json.dumps(spec).encode("utf-8")
    )
    if status != 202:
        raise RuntimeError(f"cluster refused the submission: {status} {payload}")
    return payload


def _cluster_poll(address, session_id: str) -> Optional[Dict]:
    """One poll; ``None`` during rebalance windows (503) or hiccups."""
    from repro.runtime.http import http_json

    try:
        status, payload = http_json(address, "GET", f"/attacks/{session_id}")
    except OSError:
        return None
    return payload if status == 200 else None


def _wait_session(address, session_id: str, predicate, timeout: float) -> Dict:
    deadline = time.monotonic() + timeout
    payload = None
    while time.monotonic() < deadline:
        payload = _cluster_poll(address, session_id)
        if payload is not None and predicate(payload):
            return payload
        time.sleep(0.05)
    raise TimeoutError(
        f"session {session_id} did not reach the awaited state in "
        f"{timeout}s; last payload: {payload}"
    )


def kill_worker_and_rebalance(
    workers: int = 2,
    latency: float = 0.02,
    progress_queries: int = 5,
    timeout: float = 120.0,
) -> Dict:
    """SIGKILL the worker owning a live session; prove nothing is lost.

    Runs the deterministic HARD_SEED session twice through real cluster
    tiers: once uninterrupted (the golden run), and once on a
    ``workers``-replica tier where the owning worker is SIGKILLed after
    the session has answered at least ``progress_queries`` queries.  The
    router must detect the death, rebalance the session onto a survivor,
    and finish it with *exactly* the golden final query count -- the
    paper-faithful accounting invariant.  Both tiers exit through the
    SIGTERM drain path.  Returns::

        {
            "golden_queries": <uninterrupted final count>,
            "rebalanced_queries": <killed-and-rebalanced final count>,
            "identical": <the two counts match>,
            "submitted_on": <worker that first owned the session>,
            "finished_on": <worker that completed it>,
            "deaths": <worker deaths the router recorded>,
            "rebalanced_sessions": <sessions the router re-placed>,
        }
    """
    from dataclasses import replace

    from repro.cluster.config import ClusterConfig
    from repro.cluster.router import ClusterHandle
    from repro.serve.server import ServeConfig

    spec = hard_cluster_spec()
    serve = ServeConfig(height=6, width=6, num_classes=3, seed=1)
    base = dict(port=0, heartbeat=0.2, backoff=0.2)

    with ClusterHandle(ClusterConfig(workers=1, serve=serve, **base)) as tier:
        accepted = _cluster_submit(tier.address, spec)
        final = _wait_session(
            tier.address, accepted["id"],
            lambda p: p["state"] in ("done", "failed"), timeout,
        )
        golden = final["result"]["queries"]

    with ClusterHandle(
        ClusterConfig(
            workers=workers, serve=replace(serve, latency=latency), **base
        )
    ) as tier:
        accepted = _cluster_submit(tier.address, spec)
        owner = accepted["worker"]
        _wait_session(
            tier.address, accepted["id"],
            lambda p: p.get("queries", 0) >= progress_queries, timeout,
        )
        tier.router.worker_named(owner).kill()
        final = _wait_session(
            tier.address, accepted["id"],
            lambda p: p["state"] in ("done", "failed"), timeout,
        )
        rebalanced = final["result"]["queries"]
        finisher = final["worker"]
        deaths = tier.router.deaths
        moved = tier.router.rebalanced_sessions

    return {
        "golden_queries": golden,
        "rebalanced_queries": rebalanced,
        "identical": golden == rebalanced,
        "submitted_on": owner,
        "finished_on": finisher,
        "deaths": deaths,
        "rebalanced_sessions": moved,
    }


def cancel_and_kill_cluster(
    workers: int = 2,
    latency: float = 0.02,
    progress_queries: int = 5,
    timeout: float = 120.0,
    workdir: Optional[str] = None,
) -> Dict:
    """Cancel one session, SIGKILL another's owner; the ledger must close.

    The cluster half of the lifecycle fidelity story
    (:mod:`repro.testkit.lifecycle` proves the in-process half).  Two
    deterministic HARD_SEED sessions (288 golden queries each) run on a
    checkpointed ``workers``-replica tier:

    - session A is cancelled mid-attack with ``DELETE /attacks/<id>``
      once it has charged at least ``progress_queries`` queries; the
      router must forward the DELETE to the sticky owner and A must
      settle as ``cancelled`` reporting exactly the count a budget-``k``
      local run reports (query-count fidelity across the wire);
    - session B's owning worker is then SIGKILLed; the router must
      rebalance B onto a survivor and finish it with the golden 288.

    After the tier drains, the ledger must hold **no open records** --
    cancellation closes A, completion closes B -- and a second tier
    resuming from the same checkpoint must restore zero sessions
    (``--resume`` re-runs neither).  Returns a verdict dict whose
    ``ok`` key ands every invariant.
    """
    import tempfile
    from dataclasses import replace

    from repro.cluster.config import ClusterConfig
    from repro.cluster.router import ClusterHandle
    from repro.runtime.checkpoint import CheckpointStore, open_sessions_from_records
    from repro.runtime.http import http_json
    from repro.serve.server import ServeConfig
    from repro.testkit.lifecycle import toy_lifecycle_runner

    workdir = workdir or tempfile.mkdtemp(prefix="repro-lifecycle-")
    checkpoint = os.path.join(workdir, "ledger")
    serve = ServeConfig(height=6, width=6, num_classes=3, seed=1)
    base = dict(port=0, heartbeat=0.2, backoff=0.2)
    victim_seed, survivor_seed = HARD_IMAGE_SEEDS[0], HARD_IMAGE_SEEDS[1]

    with ClusterHandle(
        ClusterConfig(
            workers=workers, serve=replace(serve, latency=latency),
            checkpoint=checkpoint, **base,
        )
    ) as tier:
        victim = _cluster_submit(tier.address, hard_cluster_spec(victim_seed))
        survivor = _cluster_submit(
            tier.address, hard_cluster_spec(survivor_seed)
        )
        _wait_session(
            tier.address, victim["id"],
            lambda p: p.get("queries", 0) >= progress_queries, timeout,
        )
        cancel_status, _ = http_json(
            tier.address, "DELETE", f"/attacks/{victim['id']}"
        )
        cancelled = _wait_session(
            tier.address, victim["id"],
            lambda p: p["state"] == "cancelled", timeout,
        )
        cancelled_k = (cancelled.get("result") or {}).get("queries")
        owner = survivor["worker"]
        tier.router.worker_named(owner).kill()
        final = _wait_session(
            tier.address, survivor["id"],
            lambda p: p["state"] in ("done", "failed"), timeout,
        )
        survivor_queries = final["result"]["queries"]
        finisher = final["worker"]
        cancelled_counter = tier.router.settled["cancelled"]

    records, _ = CheckpointStore(checkpoint).records()
    still_open = open_sessions_from_records(records)

    with ClusterHandle(
        ClusterConfig(
            workers=1, serve=serve, checkpoint=checkpoint, resume=True, **base
        )
    ) as resumed_tier:
        _, listing = resumed_tier.router.list_sessions()
        resumed_sessions = len(listing.get("sessions", []))

    # local budget-k differential: a scalar run of the same attack on the
    # same image under budget=k must report exactly the cancelled count
    exact = False
    if isinstance(cancelled_k, int) and cancelled_k > 0:
        golden = toy_lifecycle_runner().run_golden(victim_seed, cancelled_k)
        exact = (
            golden.result is not None
            and golden.result.queries == cancelled_k
            and not golden.result.success
        )

    return {
        "cancel_status": cancel_status,
        "cancelled_queries": cancelled_k,
        "cancelled_exact": exact,
        "cancelled_counter": cancelled_counter,
        "survivor_queries": survivor_queries,
        "survivor_golden": 288,
        "submitted_on": owner,
        "finished_on": finisher,
        "open_after_drain": sorted(still_open),
        "resumed_sessions": resumed_sessions,
        "ok": (
            cancel_status in (200, 202)
            and exact
            and cancelled_counter >= 1
            and survivor_queries == 288
            and not still_open
            and resumed_sessions == 0
        ),
    }


def main(argv=None) -> int:
    """Child entry point: run the toy campaign, print its fingerprint.

    With ``--cluster-workers N`` the module instead drives the cluster
    worker-kill harness (:func:`kill_worker_and_rebalance`), prints its
    verdict as JSON, and exits non-zero unless the rebalanced session
    matched the golden query count.  With ``--lifecycle`` as well it
    drives :func:`cancel_and_kill_cluster` and exits non-zero unless its
    ``ok`` verdict holds; CI's cluster lifecycle smoke runs that variant
    (CI's cluster smoke drives the ``repro cluster`` CLI itself).
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.testkit.kill",
        description="deterministic toy campaign for kill-and-resume tests",
    )
    parser.add_argument("--checkpoint", default=None, metavar="DIR")
    parser.add_argument("--images", type=int, default=12)
    parser.add_argument("--budget", type=int, default=64)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--delay",
        type=float,
        default=0.0,
        help="seconds to sleep per classifier query (lets a parent aim "
        "its SIGKILL between durable records)",
    )
    parser.add_argument(
        "--cluster-workers",
        type=int,
        default=0,
        metavar="N",
        help="run the cluster worker-kill harness against an N-worker "
        "tier instead of the toy campaign",
    )
    parser.add_argument(
        "--lifecycle",
        action="store_true",
        help="with --cluster-workers: run the cancel+kill lifecycle "
        "harness (DELETE one session mid-attack, SIGKILL the other's "
        "owner, assert the ledger closes and --resume re-runs neither)",
    )
    args = parser.parse_args(argv)
    if args.cluster_workers and args.lifecycle:
        verdict = cancel_and_kill_cluster(workers=args.cluster_workers)
        json.dump(verdict, sys.stdout, indent=2)
        print()
        return 0 if verdict["ok"] else 1
    if args.cluster_workers:
        verdict = kill_worker_and_rebalance(workers=args.cluster_workers)
        json.dump(verdict, sys.stdout, indent=2)
        print()
        return 0 if verdict["identical"] else 1
    summary = toy_campaign(
        checkpoint=args.checkpoint,
        images=args.images,
        budget=args.budget,
        seed=args.seed,
        delay=args.delay,
    )
    json.dump(summary_fingerprint(summary), sys.stdout)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
