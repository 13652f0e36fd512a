"""Batch-native stepping: single-session latency vs. the scalar protocol.

Scalar stepping pays one forward pass per query; batch-native stepping
(DESIGN §14) speculates a window of upcoming queries and answers them
with one vectorized forward, so a single session's latency drops by
roughly the model's batch-amortization factor.  This benchmark pins the
tentpole claim: on the frozen inference fast path, a full-budget sketch
session steps at least **2x** faster batched than scalar -- while
producing a bit-identical result and query count, because speculation
never changes what the attack observes or what the budget charges.

The attack is the budget-exhausting fixed sketch (a constant-False
program enumerates pairs in priority order without score-driven
reordering), so every speculative window is consumed in full and the
measured gap is the protocol's, not the program's.

The second case is a served Sparse-RS session on serve's default toy
model, driven by ``SessionManager.drive`` over a started broker with the
default policy.  Scalar, each of its queries waits in the broker queue
for a flush (up to ``max_wait``); speculating, it poses its next steps
as one batch that ``submit_many`` answers on the session's thread.  The
batched session must give the scalar result and run at least **5x**
faster.
"""

import time

import numpy as np

from conftest import write_bench_result, write_result
from repro.attacks.fixed_sketch import FixedSketchAttack
from repro.attacks.sparse_rs import SparseRS
from repro.classifier.blackbox import NetworkClassifier
from repro.core.stepping import drive_steps
from repro.models.registry import build_model
from repro.serve.broker import MicroBatchBroker
from repro.serve.server import ServeConfig, build_classifier
from repro.serve.sessions import SessionManager
from repro.testkit.differential import result_fingerprint

ARCH = "googlenet"
IMAGE_SIZE = 16
NUM_CLASSES = 10
BUDGET = 192
WINDOW = 32  # the serving default (BatchPolicy.max_batch_size)
#: Timed sessions per protocol.  Scalar and batched repetitions
#: alternate, so a swing in host speed lands on both protocols instead
#: of deciding the ratio.
REPEATS = 5
PROBE_SEEDS = 8
SERVED_BUDGET = 128  # serve_toy's budget


def _classifier():
    """A freshly built, BN-warmed googlenet on the frozen fast path."""
    model = build_model(ARCH, num_classes=NUM_CLASSES, seed=0)
    model.train()
    warmup = np.random.default_rng(1)
    for _ in range(2):
        model(warmup.normal(0.45, 0.25, size=(16, 3, IMAGE_SIZE, IMAGE_SIZE)))
    model.eval()
    return NetworkClassifier(model, dtype=np.float32, freeze=True)


def _pick_case(classifier, run, shape, budget):
    """The first probe image whose scalar session spends the full budget
    (the latency-relevant case); falls back to the longest session found.
    ``run(image, true_class, batch_size)`` runs one session."""
    best = None
    for seed in range(PROBE_SEEDS):
        image = np.random.default_rng(10 + seed).random(shape)
        true_class = int(np.argmax(classifier(image)))
        result = run(image, true_class, 0)
        if best is None or result.queries > best[2].queries:
            best = (image, true_class, result)
        if result.queries >= budget:
            break
    return best


def _time_sessions(run, image, true_class):
    """Best-of-``REPEATS`` seconds of a scalar and of a batched session,
    timed alternately."""
    best = {0: float("inf"), WINDOW: float("inf")}
    for _ in range(REPEATS):
        for batch_size in best:
            started = time.perf_counter()
            run(image, true_class, batch_size)
            best[batch_size] = min(best[batch_size], time.perf_counter() - started)
    return best[0], best[WINDOW]


def test_batched_stepping_session_latency(results_dir):
    classifier = _classifier()

    def run(image, true_class, batch_size):
        return drive_steps(
            FixedSketchAttack().steps(
                image, true_class, budget=BUDGET, batch_size=batch_size
            ),
            classifier,
        )

    image, true_class, scalar_result = _pick_case(
        classifier, run, (IMAGE_SIZE, IMAGE_SIZE, 3), BUDGET
    )

    # correctness before speed: batched must be bit-identical
    batched_result = run(image, true_class, WINDOW)
    assert result_fingerprint(batched_result) == result_fingerprint(
        scalar_result
    ), "batched stepping changed the attack result"

    scalar_time, batched_time = _time_sessions(run, image, true_class)
    speedup = scalar_time / batched_time
    queries = scalar_result.queries

    lines = [
        f"batch-native stepping ({ARCH} frozen float32, "
        f"{IMAGE_SIZE}x{IMAGE_SIZE}, budget {BUDGET}, window {WINDOW}, "
        f"best of {REPEATS} alternating)",
        f"  session queries:        {queries}",
        f"  scalar protocol:        {scalar_time * 1000:7.1f} ms/session "
        f"({queries / scalar_time:.0f} q/s)",
        f"  batched protocol:       {batched_time * 1000:7.1f} ms/session "
        f"({queries / batched_time:.0f} q/s)",
        f"  single-session speedup: {speedup:.2f}x",
        "  results bit-identical: same AttackResult, same query count",
    ]
    write_result(results_dir, "batch_stepping", "\n".join(lines))
    write_bench_result(
        results_dir,
        "batch_stepping",
        [
            ("scalar_ms_per_session", scalar_time * 1000, "ms"),
            ("batched_ms_per_session", batched_time * 1000, "ms"),
            ("speedup", speedup, "x"),
        ],
    )

    assert speedup >= 2.0, (
        f"batched stepping gained only {speedup:.2f}x over the scalar "
        f"protocol (needed 2x)"
    )


def test_served_sparse_rs_session_latency(results_dir):
    config = ServeConfig()
    classifier = build_classifier(config)
    with MicroBatchBroker(classifier) as broker:
        manager = SessionManager(broker, max_workers=1)

        def run(image, true_class, batch_size):
            session = manager.create(
                SparseRS(),
                image,
                true_class,
                budget=SERVED_BUDGET,
                batch_size=batch_size,
            )
            return manager.drive(session).result

        try:
            image, true_class, scalar_result = _pick_case(
                classifier, run, (config.height, config.width, 3), SERVED_BUDGET
            )
            batched_result = run(image, true_class, WINDOW)
            assert result_fingerprint(batched_result) == result_fingerprint(
                scalar_result
            ), "speculation changed the Sparse-RS result"
            scalar_time, batched_time = _time_sessions(run, image, true_class)
        finally:
            manager.shutdown()
    speedup = scalar_time / batched_time
    queries = scalar_result.queries

    lines = [
        f"served Sparse-RS session (toy {config.height}x{config.width} model, "
        f"default broker policy, budget {SERVED_BUDGET}, window {WINDOW}, "
        f"best of {REPEATS} alternating)",
        f"  session queries:        {queries}",
        f"  scalar protocol:        {scalar_time * 1000:7.1f} ms/session",
        f"  batched protocol:       {batched_time * 1000:7.1f} ms/session",
        f"  single-session speedup: {speedup:.2f}x",
    ]
    write_result(results_dir, "batch_stepping_sparse_rs", "\n".join(lines))
    write_bench_result(
        results_dir,
        "batch_stepping_sparse_rs",
        [
            ("scalar_ms_per_session", scalar_time * 1000, "ms"),
            ("batched_ms_per_session", batched_time * 1000, "ms"),
            ("speedup", speedup, "x"),
        ],
    )

    assert speedup >= 5.0, (
        f"speculative Sparse-RS gained only {speedup:.2f}x over the scalar "
        f"protocol (needed 5x)"
    )
