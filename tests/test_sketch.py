"""Tests for the one-pixel sketch (Algorithm 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classifier.toy import SinglePixelBackdoorClassifier, make_toy_images
from repro.core.dsl.ast import (
    Comparison,
    Condition,
    Constant,
    Center,
    Program,
    ScoreDiff,
)
from repro.core.dsl.grammar import Grammar
from repro.core.initorder import initial_order
from repro.core.pairs import Pair
from repro.core.sketch import OnePixelSketch, SketchResult
from repro.core.stepping import drive_steps

SHAPE = (6, 6, 3)
FULL_SPACE = 8 * 6 * 6


def backdoor(trigger=(2, 3), value=None):
    value = value if value is not None else np.ones(3)
    return SinglePixelBackdoorClassifier(SHAPE, trigger, value)


def gray_image():
    return np.full(SHAPE, 0.5)


class RecordingClassifier:
    """Wraps a classifier and records every queried image."""

    def __init__(self, inner):
        self.inner = inner
        self.queried = []

    def __call__(self, image):
        self.queried.append(image.copy())
        return self.inner(image)


class BatchRecordingClassifier(RecordingClassifier):
    """Also answers batches, recording each batch's size."""

    def __init__(self, inner):
        super().__init__(inner)
        self.batch_sizes = []

    def batch(self, images):
        self.batch_sizes.append(len(images))
        return np.stack([self(image) for image in images])


def pair_key(image, clean):
    """``(location, written value)`` of a one-pixel-off query image."""
    delta = np.argwhere(np.abs(image - clean).sum(axis=2) > 0)
    assert len(delta) == 1, "every query differs in exactly one pixel"
    location = tuple(delta[0])
    return location, tuple(image[location])


class TestCompleteness:
    def test_false_program_finds_backdoor(self):
        sketch = OnePixelSketch(Program.constant(False))
        result = sketch.attack(backdoor(), gray_image(), true_class=0)
        assert result.success
        assert result.pair == Pair(2, 3, 7)
        assert result.queries <= FULL_SPACE

    def test_true_program_finds_backdoor(self):
        sketch = OnePixelSketch(Program.constant(True))
        result = sketch.attack(backdoor(), gray_image(), true_class=0)
        assert result.success
        assert result.pair == Pair(2, 3, 7)
        assert result.queries <= FULL_SPACE

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_no_adversarial_example_exhausts_space(self, seed):
        """Without an adversarial example in the corner space, any program
        at any speculation window poses and charges every pair once and
        fails at the full space; no batch is wider than the window."""
        # trigger value is NOT a corner (and not the gray background),
        # so the corner space has no success
        inner = backdoor(value=np.array([0.5, 0.3, 0.7]))
        program = Grammar((6, 6)).random_program(np.random.default_rng(seed))
        image = gray_image()
        for window in (0, 1, 8, 32):
            classifier = BatchRecordingClassifier(inner)
            charged = []

            def observe(query, scores):
                if query.counted:
                    charged.append(pair_key(query.image, image))

            result = drive_steps(
                OnePixelSketch(program).steps(image, 0, batch_size=window),
                classifier,
                observer=observe,
            )
            assert not result.success
            assert result.queries == FULL_SPACE
            # the first call is the (uncounted) clean probe
            assert np.array_equal(classifier.queried[0], image)
            posed = [pair_key(query, image) for query in classifier.queried[1:]]
            assert len(posed) == len(set(posed)) == FULL_SPACE
            assert len(charged) == len(set(charged)) == FULL_SPACE
            assert set(charged) == set(posed)
            if window == 0:
                assert classifier.batch_sizes == []
            else:
                assert classifier.batch_sizes
                assert max(classifier.batch_sizes) <= window

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_every_program_is_complete(self, seed):
        """Any instantiation finds the example iff one exists (Section 3)."""
        grammar = Grammar((6, 6))
        rng = np.random.default_rng(seed)
        program = grammar.random_program(rng)
        result = OnePixelSketch(program).attack(
            backdoor(), gray_image(), true_class=0
        )
        assert result.success
        assert result.pair == Pair(2, 3, 7)
        assert 1 <= result.queries <= FULL_SPACE


class TestQueryAccounting:
    def test_false_program_queries_match_initial_order(self):
        """With all conditions False the sketch checks the initial order."""
        image = gray_image()
        order = initial_order(image)
        target = Pair(2, 3, 7)
        expected = order.index(target) + 1
        result = OnePixelSketch(Program.constant(False)).attack(
            backdoor(), image, true_class=0
        )
        assert result.queries == expected

    def test_each_pair_queried_at_most_once(self):
        classifier = RecordingClassifier(backdoor(value=np.array([0.5, 0.3, 0.7])))
        OnePixelSketch(Program.constant(True)).attack(
            classifier, gray_image(), true_class=0
        )
        # first recorded call is the (uncounted) clean-image scoring
        assert len(classifier.queried) == FULL_SPACE + 1
        assert np.array_equal(classifier.queried[0], gray_image())
        seen = set()
        for image in classifier.queried[1:]:
            key = pair_key(image, gray_image())
            assert key not in seen, "pair queried twice"
            seen.add(key)

    def test_clean_scores_not_counted(self):
        classifier = RecordingClassifier(backdoor())
        result = OnePixelSketch(Program.constant(False)).attack(
            classifier, gray_image(), true_class=0
        )
        # one uncounted clean query plus `queries` perturbed ones
        assert len(classifier.queried) == result.queries + 1

    def test_precomputed_clean_scores_skip_the_extra_call(self):
        inner = backdoor()
        classifier = RecordingClassifier(inner)
        clean = inner(gray_image())
        result = OnePixelSketch(Program.constant(False)).attack(
            classifier, gray_image(), true_class=0, clean_scores=clean
        )
        assert len(classifier.queried) == result.queries


class TestBudget:
    def test_budget_exhaustion_returns_failure(self):
        image = gray_image()
        order = initial_order(image)
        needed = order.index(Pair(2, 3, 7)) + 1
        result = OnePixelSketch(Program.constant(False)).attack(
            backdoor(), image, true_class=0, budget=needed - 1
        )
        assert not result.success
        assert result.queries == needed - 1

    def test_budget_exactly_sufficient(self):
        image = gray_image()
        needed = initial_order(image).index(Pair(2, 3, 7)) + 1
        result = OnePixelSketch(Program.constant(False)).attack(
            backdoor(), image, true_class=0, budget=needed
        )
        assert result.success
        assert result.queries == needed

    def test_zero_budget(self):
        result = OnePixelSketch(Program.constant(False)).attack(
            backdoor(), gray_image(), true_class=0, budget=0
        )
        assert not result.success
        assert result.queries == 0


class TestResult:
    def test_adversarial_image_is_one_pixel_off(self):
        result = OnePixelSketch(Program.constant(False)).attack(
            backdoor(), gray_image(), true_class=0
        )
        difference = np.abs(result.adversarial_image - gray_image()).sum(axis=2)
        assert (difference > 0).sum() == 1
        assert np.array_equal(result.adversarial_image[2, 3], np.ones(3))
        assert result.adversarial_class == 1

    def test_result_validation(self):
        with pytest.raises(ValueError):
            SketchResult(success=True, queries=5, pair=None)

    def test_rejects_bad_image_shape(self):
        with pytest.raises(ValueError):
            OnePixelSketch(Program.constant(False)).attack(
                backdoor(), np.zeros((6, 6)), true_class=0
            )


class TestEagerChecking:
    def test_b4_eagerly_checks_same_location(self):
        """B4 = center(l) < big means: after any failure, immediately try
        the remaining corners at that location, nearest first in queue
        order.  The backdoor sits at the *last-ranked* corner for a gray
        image's center pixel... so eager checking still must find it."""
        image = gray_image()
        always_b4 = Program.constant(False).replace(
            3, Condition(Comparison.LT, Center(), Constant(100.0))
        )
        result = OnePixelSketch(always_b4).attack(backdoor(), image, true_class=0)
        assert result.success
        assert result.pair == Pair(2, 3, 7)

    def test_eager_chain_reaches_neighbors(self):
        """B3 always true lets the eager BFS walk from the first failed
        pair through location neighbours.  On a gray 6x6 image the first
        popped pair sits at (2, 2); we plant the backdoor at (1, 3) --
        its 3rd neighbour in expansion order but 7th in the lazy initial
        order (behind the whole center ring) -- so eager checking must
        win."""
        image = gray_image()
        order = initial_order(image)
        first = order[0]
        assert first.location == (2, 2)
        classifier = backdoor(trigger=(1, 3), value=first.perturbation)
        always_b3 = Program.constant(False).replace(
            2, Condition(Comparison.LT, Center(), Constant(100.0))
        )
        eager = OnePixelSketch(always_b3).attack(classifier, image, true_class=0)
        lazy = OnePixelSketch(Program.constant(False)).attack(
            classifier, image, true_class=0
        )
        assert eager.success and lazy.success
        assert eager.queries == 4  # (2,2) fails, then (1,1), (1,2), (1,3)
        assert lazy.queries == 7  # the 0.5-ring then the 1.5-ring row-major
        assert eager.queries < lazy.queries
