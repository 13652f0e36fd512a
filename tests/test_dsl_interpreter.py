"""Tests for condition evaluation semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.context import EvalContext
from repro.core.dsl.ast import (
    Avg,
    Center,
    Comparison,
    Condition,
    Constant,
    ConstantCondition,
    Max,
    Min,
    PixelRef,
    ScoreDiff,
)
from repro.core.dsl.interpreter import (
    compile_condition,
    evaluate_condition,
    evaluate_function,
)
from repro.core.pairs import Pair, pair_at, pair_count
from repro.testkit.generators import conditions


@pytest.fixture
def context():
    image = np.zeros((5, 5, 3))
    image[2, 3] = [0.2, 0.6, 0.4]
    return EvalContext(
        image=image,
        pair=Pair(2, 3, 7),  # writes white
        # 0.75 and 0.5 are exact in binary, so score_diff is exactly 0.25
        clean_scores=np.array([0.75, 0.15, 0.1]),
        perturbed_scores=np.array([0.5, 0.3, 0.2]),
        true_class=0,
    )


class TestFunctions:
    def test_pixel_functions_on_original(self, context):
        assert evaluate_function(Max(PixelRef.ORIGINAL), context) == pytest.approx(0.6)
        assert evaluate_function(Min(PixelRef.ORIGINAL), context) == pytest.approx(0.2)
        assert evaluate_function(Avg(PixelRef.ORIGINAL), context) == pytest.approx(0.4)

    def test_pixel_functions_on_perturbation(self, context):
        # corner 7 is white
        assert evaluate_function(Max(PixelRef.PERTURBATION), context) == 1.0
        assert evaluate_function(Min(PixelRef.PERTURBATION), context) == 1.0
        assert evaluate_function(Avg(PixelRef.PERTURBATION), context) == 1.0

    def test_score_diff(self, context):
        assert evaluate_function(ScoreDiff(), context) == pytest.approx(0.25)

    def test_center(self, context):
        # center of a 5x5 grid is (2, 2); location (2, 3) is Linf distance 1
        assert evaluate_function(Center(), context) == pytest.approx(1.0)


class TestConditions:
    def test_gt_and_lt(self, context):
        assert evaluate_condition(
            Condition(Comparison.GT, ScoreDiff(), Constant(0.2)), context
        )
        assert not evaluate_condition(
            Condition(Comparison.GT, ScoreDiff(), Constant(0.3)), context
        )
        assert evaluate_condition(
            Condition(Comparison.LT, Center(), Constant(1.5)), context
        )
        assert not evaluate_condition(
            Condition(Comparison.LT, Center(), Constant(0.5)), context
        )

    def test_strict_inequalities(self, context):
        # score_diff is exactly 0.25: both strict comparisons are false
        exact = Constant(0.25)
        assert not evaluate_condition(
            Condition(Comparison.GT, ScoreDiff(), exact), context
        )
        assert not evaluate_condition(
            Condition(Comparison.LT, ScoreDiff(), exact), context
        )

    def test_literals(self, context):
        assert evaluate_condition(ConstantCondition(True), context)
        assert not evaluate_condition(ConstantCondition(False), context)

    def test_paper_example_conditions(self, context):
        # the worked example of Section 3.2 on this context
        b1 = Condition(Comparison.LT, ScoreDiff(), Constant(0.21))
        b2 = Condition(Comparison.GT, Max(PixelRef.ORIGINAL), Constant(0.19))
        b3 = Condition(Comparison.GT, ScoreDiff(), Constant(0.25))
        b4 = Condition(Comparison.LT, Center(), Constant(8.0))
        assert not evaluate_condition(b1, context)  # 0.25 < 0.21 is false
        assert evaluate_condition(b2, context)  # 0.6 > 0.19
        assert not evaluate_condition(b3, context)  # 0.25 > 0.25 is false
        assert evaluate_condition(b4, context)  # 1 < 8


class TestContext:
    def test_original_pixel_and_perturbation(self, context):
        assert np.allclose(context.original_pixel, [0.2, 0.6, 0.4])
        assert np.allclose(context.perturbation, [1.0, 1.0, 1.0])

    def test_image_shape(self, context):
        assert context.image_shape == (5, 5)

    def test_score_diff_sign(self):
        # perturbation that *increases* confidence gives a negative diff
        image = np.zeros((3, 3, 3))
        context = EvalContext(
            image=image,
            pair=Pair(0, 0, 0),
            clean_scores=np.array([0.5, 0.5]),
            perturbed_scores=np.array([0.8, 0.2]),
            true_class=0,
        )
        assert context.score_diff() == pytest.approx(-0.3)


class TestCompiledConditions:
    """A condition compiled for an image is the interpreter, bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_compiled_verdict_equals_the_interpreter(self, data):
        shape = (data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6)))
        width = data.draw(st.sampled_from([64, 32]), label="float width")
        image = data.draw(arrays(
            np.float64 if width == 64 else np.float32,
            shape + (3,),
            elements=st.floats(0, 1, width=width),
        ))
        classes = data.draw(st.integers(2, 5))
        score_vectors = arrays(np.float64, classes, elements=st.floats(0, 1))
        clean_scores = data.draw(score_vectors)
        scores = data.draw(score_vectors)
        true_class = data.draw(st.integers(0, classes - 1))
        index = data.draw(st.integers(0, pair_count(shape) - 1))
        context = EvalContext(
            image=image,
            pair=pair_at(index, shape),
            clean_scores=clean_scores,
            perturbed_scores=scores,
            true_class=true_class,
        )
        condition = data.draw(conditions(shape, allow_literals=True))
        if isinstance(condition, Condition) and data.draw(
            st.booleans(), label="constant at the computed value"
        ):
            # both inequalities are strict: at a tie each is false, and a
            # value computed with other bits lands on one side
            condition = Condition(
                condition.comparison,
                condition.function,
                Constant(evaluate_function(condition.function, context)),
            )
        compiled = compile_condition(condition, image, clean_scores, true_class)
        assert compiled(index, scores) == evaluate_condition(condition, context)
