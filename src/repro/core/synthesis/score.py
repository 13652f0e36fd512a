"""The score function of Section 4.

Executing a candidate program on the training set yields the average
number of queries over the inputs where it *succeeds* (failed inputs pose
a fixed number of queries -- the whole space, or the per-image budget --
and are excluded from the average, as in the paper).  The score is then
``S(P) = exp(-beta * Qbar_P)``: positive, monotonically decreasing in the
average query count, and maximal (1) at zero queries.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.dsl.ast import Program
from repro.core.initorder import initial_queue
from repro.core.pairqueue import PairQueue
from repro.core.pairs import pair_count
from repro.core.sketch import OnePixelSketch, SketchResult
from repro.core.stepping import drive_steps

TrainingPair = Tuple[np.ndarray, int]


@dataclass(frozen=True)
class ProgramEvaluation:
    """The measured behaviour of one program on a training set.

    Attributes
    ----------
    avg_queries:
        Mean queries over successful inputs; ``inf`` when none succeed.
    successes:
        Number of training inputs attacked successfully.
    total_images:
        Training-set size.
    total_queries:
        Queries posed over *all* inputs (successes and failures) -- the
        synthesis-cost currency of Figure 4.
    results:
        Per-input sketch results, aligned with the training set.
    """

    avg_queries: float
    successes: int
    total_images: int
    total_queries: int
    results: Tuple[SketchResult, ...]

    @property
    def success_rate(self) -> float:
        if self.total_images == 0:
            return 0.0
        return self.successes / self.total_images

    @property
    def penalized_avg_queries(self) -> float:
        """Mean queries over *all* inputs, failures at their fixed cost.

        Without a per-image budget this ranks programs identically to
        :attr:`avg_queries` (every sketch instantiation succeeds on the
        same inputs, so failures add the same constant to every
        program).  *With* a budget it closes a loophole: a program that
        pushes a borderline image past the budget would otherwise
        *improve* its successes-only average by evicting an expensive
        success, rewarding exactly the wrong behaviour.
        """
        if self.total_images == 0 or self.successes == 0:
            return math.inf
        return self.total_queries / self.total_images


def _aggregate_results(results: Sequence[SketchResult]) -> ProgramEvaluation:
    """Fold per-input sketch results into one :class:`ProgramEvaluation`."""
    success_queries = 0
    successes = 0
    total_queries = 0
    for result in results:
        total_queries += result.queries
        if result.success:
            successes += 1
            success_queries += result.queries
    avg = success_queries / successes if successes else math.inf
    return ProgramEvaluation(
        avg_queries=avg,
        successes=successes,
        total_images=len(results),
        total_queries=total_queries,
        results=tuple(results),
    )


class TrainingSet:
    """A synthesis run's training pairs, prepared once for every candidate.

    Algorithm 2 scores every proposal on the same pairs, so everything a
    candidate's evaluation needs that does not depend on the program is
    built once per run and shared:

    - an exact :class:`~repro.runtime.cache.QueryCache` in front of the
      classifier.  It sits behind the sketch's counting boundary
      (:class:`~repro.core.stepping.StepCounter` charges every query the
      sketch poses), so a hit is still a counted query and only the
      forward pass goes away.  Every image synthesis scores is a
      training image or one of its ``8 * d1 * d2`` perturbations, so
      the cache is sized to hold them all and never evicts: the
      classifier sees each distinct image once per set, which a zoo
      classifier's own bounded cache cannot promise (DESIGN §17);
    - each pair's clean scores, which the sketch would otherwise ask for
      (uncounted) on every evaluation;
    - each pair's initial :class:`~repro.core.pairqueue.PairQueue` of
      pair indices, of which every evaluation consumes a
      :meth:`~PairQueue.copy` (two list copies).

    Clean scores and queues are built on the first in-process
    evaluation, so a run that scores candidates in worker processes
    never pays for them.  The classifier must be deterministic, as for
    :class:`~repro.runtime.cache.CachedClassifier`: every evaluation is
    then bit-identical to running the sketch from scratch.
    """

    def __init__(
        self,
        classifier: Callable[[np.ndarray], np.ndarray],
        training_pairs: Sequence[TrainingPair],
    ):
        # Imported here: the runtime package imports the attacks, which
        # import the synthesizers, which import this module.
        from repro.runtime.cache import CachedClassifier, QueryCache

        pairs = tuple(training_pairs)
        if not pairs:
            raise ValueError("training set must be non-empty")
        shape = pairs[0][0].shape[:2]
        for image, _ in pairs:
            if image.shape[:2] != shape:
                raise ValueError("all training images must share one shape")
        self.classifier = classifier
        self.pairs = pairs
        self.shape = shape
        self.cache = QueryCache(len(pairs) * (pair_count(shape) + 1))
        self._cached = CachedClassifier(classifier, self.cache)
        self._prepared: Optional[List[Tuple[np.ndarray, PairQueue]]] = None

    @functools.cached_property
    def fingerprint(self) -> str:
        """A digest of every image and label, in order.

        Checkpoint manifests pin it, so a chain never resumes on a
        different training set of the same size.
        """
        from repro.runtime.cache import image_digest

        hasher = hashlib.sha1()
        for image, label in self.pairs:
            hasher.update(image_digest(image))
            hasher.update(int(label).to_bytes(8, "little", signed=True))
        return hasher.hexdigest()

    def usage(self) -> Tuple[int, int]:
        """``(images scored, forwards run)`` so far.

        A miss of the set's cache goes to the classifier.  One with an
        exact cache of its own (``classifier.cache``, as the zoo's
        classifier has) runs a forward only when that cache misses too,
        so its misses count the forwards; for any other classifier each
        miss here is one.
        """
        own = getattr(self.classifier, "cache", None)
        forwards = self.cache.misses if own is None else own.misses
        return self.cache.hits + self.cache.misses, forwards

    def usage_since(self, before: Tuple[int, int]) -> Tuple[int, float]:
        """``(forwards, cache hit rate)`` since :meth:`usage` read
        ``before``: one run's share of a set that runs may share.  The
        hit rate is the share of the images scored that a cache, the
        set's or the classifier's, answered without a forward."""
        lookups, forwards = self.usage()
        lookups -= before[0]
        forwards -= before[1]
        return forwards, 1.0 - forwards / lookups if lookups else 0.0

    def _inputs(self) -> List[Tuple[np.ndarray, PairQueue]]:
        if self._prepared is None:
            self._prepared = [
                (
                    np.asarray(self._cached(image), dtype=np.float64),
                    initial_queue(image),
                )
                for image, _ in self.pairs
            ]
        return self._prepared

    def evaluate(
        self, program: Program, per_image_budget: Optional[int] = None
    ) -> ProgramEvaluation:
        """Run ``program`` on every pair; see :func:`evaluate_program`."""
        sketch = OnePixelSketch(program)
        results = [
            drive_steps(
                sketch.steps(
                    image,
                    true_class,
                    budget=per_image_budget,
                    clean_scores=clean_scores,
                    queue=queue.copy(),
                ),
                self._cached,
            )
            for (image, true_class), (clean_scores, queue) in zip(
                self.pairs, self._inputs()
            )
        ]
        return _aggregate_results(results)


def prepare_training_set(
    classifier: Callable[[np.ndarray], np.ndarray],
    training_pairs: Union[TrainingSet, Sequence[TrainingPair]],
) -> TrainingSet:
    """``training_pairs`` itself if already prepared, else a new set."""
    if isinstance(training_pairs, TrainingSet):
        if training_pairs.classifier is not classifier:
            raise ValueError(
                "training set was prepared for a different classifier"
            )
        return training_pairs
    return TrainingSet(classifier, training_pairs)


def evaluate_program(
    program: Program,
    classifier: Callable[[np.ndarray], np.ndarray],
    training_pairs: Union[TrainingSet, Sequence[TrainingPair]],
    per_image_budget: Optional[int] = None,
    executor=None,
) -> ProgramEvaluation:
    """Run ``program`` on every training input and aggregate query counts.

    ``training_pairs`` is a :class:`TrainingSet` prepared for
    ``classifier`` -- what a synthesis run passes for every candidate --
    or plain ``(image, true_class)`` pairs, which get a set of their own
    for this one evaluation.  Either way the evaluation is identical to
    running :meth:`OnePixelSketch.attack` on each pair.

    With an ``executor`` (a :class:`~repro.runtime.pool.WorkerPool`) the
    per-image attacks fan out across worker processes on the raw
    classifier; the sketch is deterministic per image, so the aggregated
    evaluation is identical to the sequential one.  A per-image task
    lost to a worker fault is scored as a failure at the per-image
    budget (0 queries when unbudgeted), mirroring
    :func:`repro.eval.runner.attack_dataset`.
    """
    if executor is not None:
        from repro.runtime.tasks import PairEvaluationRunner  # cycle, as above

        if isinstance(training_pairs, TrainingSet):
            training_pairs = training_pairs.pairs
        runner = PairEvaluationRunner(
            program, classifier, per_image_budget=per_image_budget
        )
        outcomes = executor.map(
            runner,
            [(image, true_class) for image, true_class in training_pairs],
            task_name="evaluate_candidate",
        )
        results: List[SketchResult] = [
            outcome.value
            if outcome.ok
            else SketchResult(
                success=False,
                queries=per_image_budget if per_image_budget is not None else 0,
            )
            for outcome in outcomes
        ]
        return _aggregate_results(results)

    training_set = prepare_training_set(classifier, training_pairs)
    return training_set.evaluate(program, per_image_budget)


def score(
    evaluation: ProgramEvaluation, beta: float, include_failures: bool = False
) -> float:
    """``S(P) = exp(-beta * Qbar_P)``; zero when the program never succeeds.

    ``include_failures`` switches ``Qbar`` from the paper's successes-only
    average to :attr:`ProgramEvaluation.penalized_avg_queries`; see that
    property for why this matters under per-image budgets.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    average = (
        evaluation.penalized_avg_queries
        if include_failures
        else evaluation.avg_queries
    )
    if math.isinf(average):
        return 0.0
    return math.exp(-beta * average)
