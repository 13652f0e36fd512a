"""Spawn-safe task functions for the execution engine.

Everything here crosses process boundaries, so task callables are
instances of module-level classes (picklable under both ``fork`` and
``spawn``) whose heavyweight state -- the attack, the classifier, a
program -- is shipped **once per worker** when the worker starts, while
the per-task payload stays a tiny ``(image, true_class)`` tuple.

Worker-local state (the lazily built query cache, the instantiated
sketch) is created on first use inside the worker and reused across that
worker's tasks; it never leaks back to the parent except as explicit
numbers in the returned envelopes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.attacks.base import AttackResult, OnePixelAttack
from repro.classifier.blackbox import QueryBudgetExceeded
from repro.core.dsl.ast import Program
from repro.core.sketch import OnePixelSketch, SketchResult
from repro.runtime.cache import CachedClassifier, normalized_cache_size

TaskPayload = Tuple[np.ndarray, int]

#: Error tag recorded on degraded results of non-compliant attacks.
BUDGET_ESCAPE_TAG = "QueryBudgetExceeded"


def run_single_attack(
    attack: OnePixelAttack,
    classifier,
    image: np.ndarray,
    true_class: int,
    budget: Optional[int],
) -> AttackResult:
    """One attack with graceful budget exhaustion.

    Compliant attacks catch :class:`QueryBudgetExceeded` themselves and
    return a failed result at the queries actually posed.  An attack
    that lets the exception escape is recorded as a failure at the full
    budget with an error tag instead of poisoning the whole dataset run.
    """
    try:
        return attack.attack(classifier, image, true_class, budget=budget)
    except QueryBudgetExceeded as exc:
        spent = budget if budget is not None else exc.budget
        return AttackResult(success=False, queries=spent, error=BUDGET_ESCAPE_TAG)


@dataclass(frozen=True)
class AttackTaskResult:
    """Envelope a worker returns per attacked image.

    ``cache_hits`` / ``cache_misses`` are the *deltas* this task added to
    its worker-local query cache, so the parent can aggregate a global
    hit rate without sharing memory across processes.  ``seconds`` is
    the wall-clock time the attack itself took inside the worker
    (excluding pool scheduling and transport), which is what campaign
    reports and the perf trendline track as per-image latency.
    """

    result: AttackResult
    cache_hits: int = 0
    cache_misses: int = 0
    seconds: Optional[float] = None


class AttackTaskRunner:
    """Picklable ``(image, true_class) -> AttackTaskResult`` callable.

    The optional query cache wraps the classifier *inside* the attack's
    own counting boundary, so it accelerates repeated forward passes
    without altering the paper-faithful per-image query counts -- see
    :mod:`repro.runtime.cache` for the threat-model discussion.

    ``cache_size=0`` is accepted as "no cache" (the natural meaning of a
    zero-entry cache, and what the CLI's ``--cache-size 0`` default sends
    through); negative sizes are rejected here, at the engine boundary,
    instead of surfacing as a :class:`QueryCache` crash inside a worker.

    ``step_batch`` sets the attack's batch-native stepping window
    (:attr:`~repro.attacks.base.OnePixelAttack.batch_size`) inside the
    worker: ``None`` leaves the attack's own default, ``0`` pins the
    legacy scalar protocol, ``N > 0`` speculates up to N queries per
    vectorized forward pass.  Results are bit-identical either way.
    """

    def __init__(
        self,
        attack: OnePixelAttack,
        classifier,
        budget: Optional[int] = None,
        cache_size: Optional[int] = None,
        step_batch: Optional[int] = None,
    ):
        self.attack = attack
        self.classifier = classifier
        self.budget = budget
        self.cache_size = normalized_cache_size(cache_size)
        self.step_batch = step_batch
        self._cached: Optional[CachedClassifier] = None

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_cached"] = None  # caches are worker-local, never shipped
        return state

    def _effective_classifier(self):
        if self.cache_size is None:
            return self.classifier
        if self._cached is None:
            self._cached = CachedClassifier(self.classifier, maxsize=self.cache_size)
        return self._cached

    def __call__(self, payload: TaskPayload) -> AttackTaskResult:
        image, true_class = payload
        if self.step_batch is not None:
            # worker-side so the window survives pickling regardless of
            # how the attack class handles unknown attributes
            self.attack.batch_size = self.step_batch
        classifier = self._effective_classifier()
        hits_before = misses_before = 0
        if self._cached is not None:
            hits_before = self._cached.cache.hits
            misses_before = self._cached.cache.misses
        started = time.perf_counter()
        result = run_single_attack(
            self.attack, classifier, image, true_class, self.budget
        )
        seconds = time.perf_counter() - started
        if self._cached is not None:
            return AttackTaskResult(
                result=result,
                cache_hits=self._cached.cache.hits - hits_before,
                cache_misses=self._cached.cache.misses - misses_before,
                seconds=seconds,
            )
        return AttackTaskResult(result=result, seconds=seconds)


class PairEvaluationRunner:
    """Picklable per-training-image evaluator for synthesis candidates.

    Ships the candidate :class:`Program` once per worker; the sketch is
    instantiated lazily in the worker and reused for every image that
    worker evaluates.
    """

    def __init__(
        self,
        program: Program,
        classifier,
        per_image_budget: Optional[int] = None,
    ):
        self.program = program
        self.classifier = classifier
        self.per_image_budget = per_image_budget
        self._sketch: Optional[OnePixelSketch] = None

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_sketch"] = None
        return state

    def __call__(self, payload: TaskPayload) -> SketchResult:
        if self._sketch is None:
            self._sketch = OnePixelSketch(self.program)
        image, true_class = payload
        return self._sketch.attack(
            self.classifier, image, true_class, budget=self.per_image_budget
        )
