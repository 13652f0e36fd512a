"""Evaluation of conditions against an :class:`~repro.core.context.EvalContext`.

Kept separate from the AST so the syntax stays a plain data structure
(printable, parseable, mutable) and the semantics live in one place.

:func:`evaluate_condition` is the reference semantics.  The sketch runs
:func:`compile_condition` instead: once per image it turns a condition
into a verdict per pair index -- a pixel or ``center`` condition into
one boolean per location (``x[l]``, ``center``) or per corner (``p``),
a ``score_diff`` condition into a threshold on the true-class drop --
whose answers equal the interpreter's bit for bit.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.context import EvalContext
from repro.core.dsl.ast import (
    Avg,
    Center,
    Comparison,
    Condition,
    ConditionLike,
    ConstantCondition,
    Function,
    Max,
    Min,
    PixelFunction,
    PixelRef,
    ScoreDiff,
)
from repro.core.geometry import RGB_CORNERS, center_distances
from repro.core.pairs import pair_features

#: A condition compiled for one image: ``fires(index, scores)`` is its
#: verdict for the pair at ``index`` whose perturbed image scored
#: ``scores`` (float64, as the sketch holds them).
CompiledCondition = Callable[[int, np.ndarray], bool]


def _resolve_pixel(ref: PixelRef, context: EvalContext) -> np.ndarray:
    if ref is PixelRef.ORIGINAL:
        return context.original_pixel
    return context.perturbation


def evaluate_function(function: Function, context: EvalContext) -> float:
    """The real value of ``F`` in ``context``."""
    if isinstance(function, Max):
        return float(_resolve_pixel(function.pixel, context).max())
    if isinstance(function, Min):
        return float(_resolve_pixel(function.pixel, context).min())
    if isinstance(function, Avg):
        return float(_resolve_pixel(function.pixel, context).mean())
    if isinstance(function, ScoreDiff):
        return context.score_diff()
    if isinstance(function, Center):
        return context.center()
    raise TypeError(f"unknown function node {function!r}")


def evaluate_condition(condition: ConditionLike, context: EvalContext) -> bool:
    """The truth value of ``B`` in ``context``."""
    if isinstance(condition, ConstantCondition):
        return condition.value
    value = evaluate_function(condition.function, context)
    if condition.comparison is Comparison.GT:
        return value > condition.constant.value
    return value < condition.constant.value


def _reduce_pixels(function: PixelFunction, pixels: np.ndarray) -> np.ndarray:
    """``function`` of each row of ``pixels`` (m, 3), with the bits of
    the interpreter's per-pixel ``max``/``min``/``mean``."""
    if isinstance(function, Max):
        values = pixels.max(axis=1)
    elif isinstance(function, Min):
        values = pixels.min(axis=1)
    else:
        values = pixels.mean(axis=1)
    return values.astype(np.float64, copy=False)


#: ``max``/``min``/``avg`` of ``p`` for each corner index.
_CORNER_VALUES = {
    kind: _reduce_pixels(kind(PixelRef.PERTURBATION), RGB_CORNERS)
    for kind in (Max, Min, Avg)
}


def compile_condition(
    condition: ConditionLike,
    image: np.ndarray,
    clean_scores: np.ndarray,
    true_class: int,
) -> CompiledCondition:
    """``condition`` compiled for ``image`` (see the module docstring).

    ``fires(index, scores)`` equals :func:`evaluate_condition` on the
    :class:`EvalContext` of the pair at ``index``
    (:func:`~repro.core.pairs.pair_at`) with these clean and perturbed
    scores and true class.
    """
    if isinstance(condition, ConstantCondition):
        value = condition.value
        return lambda index, scores: value
    function = condition.function
    threshold = condition.constant.value
    greater = condition.comparison is Comparison.GT
    if isinstance(function, ScoreDiff):
        clean = np.float64(clean_scores[true_class])
        if greater:
            return lambda index, scores: clean - scores[true_class] > threshold
        return lambda index, scores: clean - scores[true_class] < threshold
    shape = image.shape[:2]
    locations, corners = pair_features(shape)
    if isinstance(function, Center):
        values, key = center_distances(shape).reshape(-1), locations
    elif function.pixel is PixelRef.ORIGINAL:
        values, key = _reduce_pixels(function, image.reshape(-1, 3)), locations
    else:
        values, key = _CORNER_VALUES[type(function)], corners
    fires = (values > threshold if greater else values < threshold).tolist()
    return lambda index, scores: fires[key[index]]
