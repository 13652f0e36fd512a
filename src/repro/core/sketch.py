"""The one-pixel attack sketch (Algorithm 1, Appendix A).

A prioritizing program iterates over every (location, perturbation) pair,
querying the classifier until a perturbed image is misclassified.  Its
four condition holes control the dynamic reordering:

- ``B1`` true after a failed pair: push the pair's location-neighbours
  (same perturbation) to the *back* of the queue;
- ``B2`` true: push the next same-location pair to the *back*;
- ``B3`` true: *eagerly check* the location-neighbours (conceptually the
  front of the queue), recursing through their neighbours;
- ``B4`` true: eagerly check the next same-location pair, likewise
  recursing.

Every instantiation of the sketch visits each pair at most once and visits
all of them absent an early success, so it finds a successful adversarial
example whenever one exists in the corner perturbation space -- conditions
only affect the *order*, hence the query count.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from repro.core.stepping import (
    AttackSteps,
    Query,
    QueryBatch,
    StepCounter,
    drive_steps,
    resolve_batch_window,
)
from repro.classifier.blackbox import QueryBudgetExceeded
from repro.core.instrumentation import SketchStats
from repro.core.dsl.ast import Program
from repro.core.dsl.interpreter import compile_condition
from repro.core.initorder import initial_queue
from repro.core.pairqueue import PairQueue
from repro.core.pairs import Pair, neighbor_table, pair_at


@dataclass(frozen=True)
class SketchResult:
    """Outcome of one attack.

    ``queries`` counts only perturbed-image submissions; the clean image's
    scores are an input of the threat model (the attacker is handed a
    correctly-classified image), not an attack query.
    """

    success: bool
    queries: int
    pair: Optional[Pair] = None
    adversarial_image: Optional[np.ndarray] = None
    adversarial_class: Optional[int] = None

    def __post_init__(self):
        if self.success and self.pair is None:
            raise ValueError("successful results must carry the pair")


class OnePixelSketch:
    """The sketch instantiated with a :class:`~repro.core.dsl.ast.Program`.

    Parameters
    ----------
    program:
        The four conditions filling the sketch's holes.

    The instance is stateless across calls; :meth:`attack` may be invoked
    concurrently for different images.
    """

    def __init__(self, program: Program):
        self.program = program

    def attack(
        self,
        classifier: Callable[[np.ndarray], np.ndarray],
        image: np.ndarray,
        true_class: int,
        budget: Optional[int] = None,
        clean_scores: Optional[np.ndarray] = None,
        target_class: Optional[int] = None,
        stats: Optional[SketchStats] = None,
    ) -> SketchResult:
        """Run the attack on one image.

        Parameters
        ----------
        classifier:
            Black-box scorer ``(H, W, 3) -> (C,)``.
        image:
            The clean image, values in [0, 1].
        true_class:
            The class to dislodge (the image's correct classification).
        budget:
            Optional hard cap on queries; exceeding it aborts with a
            failed result whose ``queries`` equals the budget.
        clean_scores:
            ``N(x)`` if already known; computed once (uncounted) otherwise.
        target_class:
            Untargeted attack when ``None`` (the paper's setting: success
            is any misclassification).  Otherwise success requires the
            classifier to output exactly this class -- an extension; the
            conditions still observe the true class's confidence.
        stats:
            Optional :class:`~repro.core.instrumentation.SketchStats` to
            accumulate condition fire counts and reordering activity into.
        """
        return drive_steps(
            self.steps(
                image,
                true_class,
                budget=budget,
                clean_scores=clean_scores,
                target_class=target_class,
                stats=stats,
            ),
            classifier,
        )

    def steps(
        self,
        image: np.ndarray,
        true_class: int,
        budget: Optional[int] = None,
        clean_scores: Optional[np.ndarray] = None,
        target_class: Optional[int] = None,
        stats: Optional[SketchStats] = None,
        batch_size: Optional[int] = None,
        queue: Optional[PairQueue] = None,
    ) -> AttackSteps:
        """The attack as a query-yielding generator (see
        :mod:`repro.core.stepping` for the protocol).

        When ``clean_scores`` is not supplied, the first yielded query is
        the *clean* image marked ``counted=False`` -- the paper treats
        ``N(x)`` as a threat-model input, not an attack submission, so it
        never touches the budget or the reported query count.

        With ``batch_size=N`` the generator yields speculative
        :class:`~repro.core.stepping.QueryBatch` objects: whenever a
        pair's scores are demanded and not already prefetched, the next
        queue entries ride along in the same forward pass (up to ``N``
        members, capped so prefetches never outrun the remaining
        budget).  Prefetched answers are kept until their pair is
        actually demanded -- dynamic reordering only changes *when* a
        pair is consumed, never its image, so no pair is ever posed
        twice.  Counting happens at consumption via
        :meth:`StepCounter.charge`, making results and per-query
        accounting bit-identical to the scalar path.

        The sketch runs on pair indices (:mod:`repro.core.pairs`) and
        on the program's conditions compiled for ``image``
        (:func:`~repro.core.dsl.interpreter.compile_condition`); a
        :class:`~repro.core.pairs.Pair` is built only for the result.
        Every pair is posed as a keyed query
        (:meth:`~repro.core.stepping.Query.keyed`), scalar or batched:
        its perturbed image is built when an executor or the result
        first reads it, so an executor that answers by pair index (a
        synthesis :class:`~repro.core.synthesis.score.TrainingSet`)
        builds none on a hit.  Only the uncounted clean probe carries a
        built image.

        ``queue``, if given, must be ``initial_queue(image)`` in its
        initial state; the attack consumes it in place of building that
        queue, so a caller attacking one image many times passes a fresh
        :meth:`PairQueue.copy` of one prepared queue per call.
        """
        if image.ndim != 3 or image.shape[2] != 3:
            raise ValueError(f"image must be (H, W, 3), got {image.shape}")
        if target_class is not None and target_class == true_class:
            raise ValueError("target class must differ from the true class")
        counter = StepCounter(budget)
        if clean_scores is None:
            clean_scores = np.asarray(
                (yield Query(image, counted=False)), dtype=np.float64
            )
        shape = image.shape[:2]
        if queue is None:
            queue = initial_queue(image)
        b1, b2, b3, b4 = (
            compile_condition(condition, image, clean_scores, true_class)
            for condition in self.program.conditions
        )
        neighbors = neighbor_table(shape)

        def is_success(winner: int) -> bool:
            if target_class is None:
                return winner != true_class
            return winner == target_class

        window = resolve_batch_window(batch_size)
        #: index -> (query, scores row, origin batch) for posed-but-not-yet-
        #: demanded speculation; entries stay valid across queue reordering
        #: because a pair's perturbed image never changes.
        prefetched: Dict[int, tuple] = {}

        def fetch(index: int):
            """Batched ``(query, scores)`` for pair ``index`` (subgenerator).

            Serves from the prefetch map, posing a new speculative batch
            (the demanded pair plus upcoming queue entries) on a miss;
            the charge and observer notification happen here, at
            consumption, in exact scalar order.  (Scalar mode submits one
            counted query per pair, in :func:`check`.)
            """
            entry = prefetched.pop(index, None)
            if entry is None:
                if counter.allowance == 0:
                    counter.charge()  # raises where the scalar path stops
                room = window
                if counter.budget is not None:
                    room = max(
                        1, min(window, counter.allowance - len(prefetched))
                    )
                targets = [index]
                if room > 1:
                    for upcoming in queue.peek(room - 1 + len(prefetched)):
                        if len(targets) >= room:
                            break
                        if upcoming not in prefetched:
                            targets.append(upcoming)
                batch = QueryBatch(
                    tuple(Query.keyed(image, target) for target in targets)
                )
                answers = np.asarray((yield batch), dtype=np.float64)
                for target, query, row in zip(targets, batch.queries, answers):
                    prefetched[target] = (query, row, batch)
                entry = prefetched.pop(index)
            query, row, origin = entry
            counter.charge()
            origin.note(query, row)
            return query, row

        def check(index: int):
            """Query one pair (subgenerator); returns (scores, result).

            Both paths pose the pair as a keyed query, whose image is
            built only when an executor (or the result) reads it.
            """
            if window <= 0:
                counter.charge()
                query = Query.keyed(image, index)
                scores = np.asarray((yield query), dtype=np.float64)
            else:
                query, scores = yield from fetch(index)
            winner = int(scores.argmax())
            if is_success(winner):
                return scores, SketchResult(
                    success=True,
                    queries=counter.count,
                    pair=pair_at(index, shape),
                    adversarial_image=query.image,
                    adversarial_class=winner,
                )
            return scores, None

        try:
            while queue:
                index = queue.pop()
                scores, result = yield from check(index)
                if stats is not None:
                    stats.main_loop_pops += 1
                if result is not None:
                    return result

                # push-back reordering (lines 5-6)
                fired = b1(index, scores)
                if stats is not None:
                    stats.record_condition("b1", fired)
                if fired:
                    for neighbor in neighbors[index]:
                        if neighbor in queue:
                            queue.push_back(neighbor)
                            if stats is not None:
                                stats.pushed_back_location += 1
                fired = b2(index, scores)
                if stats is not None:
                    stats.record_condition("b2", fired)
                if fired:
                    next_same_location = queue.first_at_location(index)
                    if next_same_location is not None:
                        queue.push_back(next_same_location)
                        if stats is not None:
                            stats.pushed_back_perturbation += 1

                # eager front-checking (lines 7-24); when neither B3 nor
                # B4 fires on the failed pair the BFS would stop at once
                if b3(index, scores) or b4(index, scores):
                    result = yield from _eager_check(
                        index, scores, queue, neighbors, b3, b4, check, stats
                    )
                    if result is not None:
                        return result
                elif stats is not None:
                    stats.record_condition("b3", False)
                    stats.record_condition("b4", False)
        except QueryBudgetExceeded:
            return SketchResult(success=False, queries=counter.count)
        return SketchResult(success=False, queries=counter.count)


def _eager_check(
    failed: int,
    failed_scores: np.ndarray,
    queue: PairQueue,
    neighbors,
    b3,
    b4,
    check,
    stats: Optional[SketchStats] = None,
):
    """The eager BFS of Algorithm 1, lines 7-24 (subgenerator).

    ``loc_queue`` / ``pert_queue`` hold failed pairs whose neighbours
    (by location / by perturbation respectively) may deserve immediate
    checking, as decided by conditions ``B3`` / ``B4``.
    """
    scores_of: Dict[int, np.ndarray] = {failed: failed_scores}
    loc_queue = deque([failed])
    pert_queue = deque([failed])

    def expand(candidates):
        for candidate in candidates:
            queue.remove(candidate)
            scores, result = yield from check(candidate)
            if stats is not None:
                stats.eager_checks += 1
            if result is not None:
                return result
            scores_of[candidate] = scores
            loc_queue.append(candidate)
            pert_queue.append(candidate)
        return None

    while loc_queue or pert_queue:
        while loc_queue:
            index = loc_queue.popleft()
            fired = b3(index, scores_of[index])
            if stats is not None:
                stats.record_condition("b3", fired)
            if fired:
                in_queue = [
                    neighbor for neighbor in neighbors[index] if neighbor in queue
                ]
                result = yield from expand(in_queue)
                if result is not None:
                    return result
        while pert_queue:
            index = pert_queue.popleft()
            fired = b4(index, scores_of[index])
            if stats is not None:
                stats.record_condition("b4", fired)
            if fired:
                next_same_location = queue.first_at_location(index)
                if next_same_location is not None:
                    result = yield from expand([next_same_location])
                    if result is not None:
                        return result
    return None
