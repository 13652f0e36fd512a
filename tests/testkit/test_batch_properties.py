"""Property-based invariants of batch-native stepping (DESIGN §14).

Two properties the batched protocol is defined by, checked over
arbitrary seeds, windows, and budgets:

- **flattening**: the consumption-order event stream of a batched run
  (what observers see, what sessions charge) is exactly the scalar
  run's query sequence -- digests, counted flags, and scores alike;
- **truncation**: for any budget, a batched run stops charging at the
  exact query where the scalar run stops, producing a bit-identical
  result and never counting speculative tails.
"""

from functools import partial

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.testkit.generators as gen
from repro.classifier.toy import LinearPixelClassifier
from repro.core.stepping import drive_steps
from repro.testkit.differential import (
    BATCH_ROTATION,
    result_fingerprint,
    rotating_attack,
)
from repro.testkit.trace import TraceRecorder

SHAPE = (5, 5, 3)
ATTACK_FACTORY = partial(rotating_attack, rotation=BATCH_ROTATION)

windows = st.integers(min_value=1, max_value=9)


def _case(seed: int):
    classifier = LinearPixelClassifier(
        SHAPE, num_classes=3, seed=7, temperature=0.05
    )
    image = np.random.default_rng(seed).random(SHAPE)
    true_class = int(np.argmax(classifier(image)))
    return ATTACK_FACTORY(seed), classifier, image, true_class


def _run(attack, classifier, image, true_class, budget, batch_size):
    recorder = TraceRecorder(clean_image=image)
    result = drive_steps(
        attack.steps(image, true_class, budget=budget, batch_size=batch_size),
        classifier,
        observer=recorder,
    )
    return result, [event.to_dict() for event in recorder.events]


class TestFlattening:
    @given(gen.seeds(max_seed=2**16), windows)
    @settings(max_examples=25, deadline=None)
    def test_batched_trace_flattens_to_scalar_sequence(self, seed, window):
        attack, classifier, image, true_class = _case(seed)
        scalar, scalar_trace = _run(
            attack, classifier, image, true_class, 48, 0
        )
        batched, batched_trace = _run(
            attack, classifier, image, true_class, 48, window
        )
        assert batched_trace == scalar_trace
        assert result_fingerprint(batched) == result_fingerprint(scalar)


class TestTruncation:
    @given(gen.seeds(max_seed=2**16), windows, gen.budgets(max_budget=64))
    @settings(max_examples=25, deadline=None)
    def test_mid_batch_truncation_matches_scalar_stop(
        self, seed, window, budget
    ):
        attack, classifier, image, true_class = _case(seed)
        scalar, scalar_trace = _run(
            attack, classifier, image, true_class, budget, 0
        )
        batched, batched_trace = _run(
            attack, classifier, image, true_class, budget, window
        )
        assert result_fingerprint(batched) == result_fingerprint(scalar)
        assert batched_trace == scalar_trace
        if budget is not None:
            assert batched.queries <= budget
