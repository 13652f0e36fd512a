"""Inference fast path: frozen float32 serving vs. the seed eval path.

The serving stack scores broker-sized batches (32 images per flush by
default), so the number that matters is batched forward-pass throughput.
This benchmark pins the tentpole claim: freezing a model -- folding each
batch norm into its preceding convolution (float32 only), gathering
im2col matrices into one scratch arena, and skipping every layer's
backward-cache construction -- at the float32 serving configuration
clears **2x** the throughput of the seed float64 eval path on those
batches, while staying decision-identical (same argmax everywhere,
scores allclose at float32 tolerance).

Query counts are untouched by construction: folding changes how fast a
forward pass runs, never how many of them an attack submits.
"""

import time

import numpy as np

from conftest import write_bench_result, write_result
from repro.classifier.blackbox import NetworkClassifier
from repro.models.registry import build_model

ARCH = "googlenet"
BATCH = 32
IMAGE_SIZE = 16
NUM_CLASSES = 10
REPEATS = 5


def _classifier(dtype=None, freeze=False):
    """A freshly built, BN-warmed googlenet (deterministic per seed)."""
    model = build_model(ARCH, num_classes=NUM_CLASSES, seed=0)
    model.train()
    warmup = np.random.default_rng(1)
    for _ in range(2):
        model(warmup.normal(0.45, 0.25, size=(16, 3, IMAGE_SIZE, IMAGE_SIZE)))
    model.eval()
    return NetworkClassifier(model, dtype=dtype, freeze=freeze)


def _time_batches(classifier, images):
    """Best-of-``REPEATS`` seconds to score one broker-sized batch."""
    classifier.batch(images)  # grow the arena out of the timed region
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        classifier.batch(images)
        best = min(best, time.perf_counter() - started)
    return best


def test_inference_fastpath_throughput(results_dir):
    images = np.random.default_rng(2).random((BATCH, IMAGE_SIZE, IMAGE_SIZE, 3))

    baseline = _classifier()  # the seed configuration: float64, unfrozen
    fast = _classifier(dtype=np.float32, freeze=True)

    # correctness before speed: the fast path must not change decisions
    reference = baseline.batch(images)
    frozen = fast.batch(images)
    decisions_equal = np.array_equal(
        reference.argmax(axis=1), frozen.argmax(axis=1)
    )
    assert decisions_equal, "frozen float32 path changed a decision"
    assert np.allclose(reference, frozen, rtol=1e-3, atol=1e-4)

    baseline_time = _time_batches(baseline, images)
    fast_time = _time_batches(fast, images)
    speedup = baseline_time / fast_time
    baseline_ips = BATCH / baseline_time
    fast_ips = BATCH / fast_time

    lines = [
        f"inference fast path ({ARCH}, batch {BATCH}, "
        f"{IMAGE_SIZE}x{IMAGE_SIZE}, best of {REPEATS})",
        f"  seed eval path (float64):      {baseline_time * 1000:7.1f} ms/batch "
        f"({baseline_ips:.0f} img/s)",
        f"  frozen fast path (float32):    {fast_time * 1000:7.1f} ms/batch "
        f"({fast_ips:.0f} img/s)",
        f"  throughput gain: {speedup:.2f}x",
        f"  decisions identical: {decisions_equal}",
        "  query counts unaffected: folding changes per-query latency only",
    ]
    write_result(results_dir, "inference_fastpath", "\n".join(lines))
    write_bench_result(
        results_dir,
        "inference_fastpath",
        [
            ("baseline_ms_per_batch", baseline_time * 1000, "ms"),
            ("fastpath_ms_per_batch", fast_time * 1000, "ms"),
            ("speedup", speedup, "x"),
        ],
    )

    assert speedup >= 2.0, (
        f"frozen float32 path gained only {speedup:.2f}x over the seed "
        f"eval path (needed 2x)"
    )
