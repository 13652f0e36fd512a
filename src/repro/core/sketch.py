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
from typing import Callable, Dict, List, Optional

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
from repro.core.context import EvalContext
from repro.core.instrumentation import SketchStats
from repro.core.dsl.ast import Program
from repro.core.dsl.interpreter import evaluate_condition
from repro.core.initorder import initial_order
from repro.core.pairqueue import PairQueue
from repro.core.pairs import Pair, location_neighbors


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

        ``queue``, if given, must be ``PairQueue(initial_order(image))``
        in its initial state; the attack consumes it in place of building
        that queue, so a caller attacking one image many times passes a
        fresh :meth:`PairQueue.copy` of one prepared queue per call.
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
            queue = PairQueue(initial_order(image))
        program = self.program

        def is_success(winner: int) -> bool:
            if target_class is None:
                return winner != true_class
            return winner == target_class

        window = resolve_batch_window(batch_size)
        #: pair -> (query, scores row, origin batch) for posed-but-not-yet-
        #: demanded speculation; entries stay valid across queue reordering
        #: because a pair's perturbed image never changes.
        prefetched: Dict[Pair, tuple] = {}

        def fetch(pair: Pair, perturbed: np.ndarray):
            """Scores for ``pair`` (subgenerator), batched when enabled.

            Scalar mode submits one counted query.  Batched mode serves
            from the prefetch map, posing a new speculative batch (the
            demanded pair plus upcoming queue entries) on a miss; the
            charge and observer notification happen here, at
            consumption, in exact scalar order.
            """
            if window <= 0:
                return np.asarray(
                    (yield counter.submit(perturbed)), dtype=np.float64
                )
            entry = prefetched.pop(pair, None)
            if entry is None:
                if counter.allowance == 0:
                    counter.charge()  # raises where the scalar path stops
                room = window
                if counter.budget is not None:
                    room = max(
                        1, min(window, counter.allowance - len(prefetched))
                    )
                targets = [pair]
                if room > 1:
                    for upcoming in queue.peek(room - 1 + len(prefetched)):
                        if len(targets) >= room:
                            break
                        if upcoming not in prefetched:
                            targets.append(upcoming)
                batch = QueryBatch(tuple(
                    Query(perturbed if target is pair else target.apply(image))
                    for target in targets
                ))
                answers = np.asarray((yield batch), dtype=np.float64)
                for target, query, row in zip(targets, batch.queries, answers):
                    prefetched[target] = (query, row, batch)
                entry = prefetched.pop(pair)
            query, row, origin = entry
            counter.charge()
            origin.note(query, row)
            return row

        def check(pair: Pair):
            """Query one pair (subgenerator); returns (scores, result)."""
            perturbed = pair.apply(image)
            scores = yield from fetch(pair, perturbed)
            winner = int(np.argmax(scores))
            if is_success(winner):
                return scores, SketchResult(
                    success=True,
                    queries=counter.count,
                    pair=pair,
                    adversarial_image=perturbed,
                    adversarial_class=winner,
                )
            return scores, None

        def context_for(pair: Pair, scores: np.ndarray) -> EvalContext:
            return EvalContext(
                image=image,
                pair=pair,
                clean_scores=clean_scores,
                perturbed_scores=scores,
                true_class=true_class,
            )

        try:
            while queue:
                pair = queue.pop()
                scores, result = yield from check(pair)
                if stats is not None:
                    stats.main_loop_pops += 1
                if result is not None:
                    return result
                context = context_for(pair, scores)

                # push-back reordering (lines 5-6)
                b1 = evaluate_condition(program.b1, context)
                if stats is not None:
                    stats.record_condition("b1", b1)
                if b1:
                    for neighbor in location_neighbors(pair, shape):
                        if neighbor in queue:
                            queue.push_back(neighbor)
                            if stats is not None:
                                stats.pushed_back_location += 1
                b2 = evaluate_condition(program.b2, context)
                if stats is not None:
                    stats.record_condition("b2", b2)
                if b2:
                    next_same_location = queue.first_at_location(pair.location)
                    if next_same_location is not None:
                        queue.push_back(next_same_location)
                        if stats is not None:
                            stats.pushed_back_perturbation += 1

                # eager front-checking (lines 7-24)
                result = yield from self._eager_check(
                    pair, context, queue, shape, check, context_for, stats
                )
                if result is not None:
                    return result
        except QueryBudgetExceeded:
            return SketchResult(success=False, queries=counter.count)
        return SketchResult(success=False, queries=counter.count)

    def _eager_check(
        self,
        failed_pair: Pair,
        failed_context: EvalContext,
        queue: PairQueue,
        shape,
        check,
        context_for,
        stats: Optional[SketchStats] = None,
    ):
        """The eager BFS of Algorithm 1, lines 7-24 (subgenerator).

        ``loc_queue`` / ``pert_queue`` hold failed pairs whose neighbours
        (by location / by perturbation respectively) may deserve immediate
        checking, as decided by conditions ``B3`` / ``B4``.
        """
        program = self.program
        contexts: Dict[Pair, EvalContext] = {failed_pair: failed_context}
        loc_queue = deque([failed_pair])
        pert_queue = deque([failed_pair])

        def expand(candidates: List[Pair]):
            for candidate in candidates:
                queue.remove(candidate)
                scores, result = yield from check(candidate)
                if stats is not None:
                    stats.eager_checks += 1
                if result is not None:
                    return result
                contexts[candidate] = context_for(candidate, scores)
                loc_queue.append(candidate)
                pert_queue.append(candidate)
            return None

        while loc_queue or pert_queue:
            while loc_queue:
                pair = loc_queue.popleft()
                b3 = evaluate_condition(program.b3, contexts[pair])
                if stats is not None:
                    stats.record_condition("b3", b3)
                if b3:
                    in_queue = [
                        neighbor
                        for neighbor in location_neighbors(pair, shape)
                        if neighbor in queue
                    ]
                    result = yield from expand(in_queue)
                    if result is not None:
                        return result
            while pert_queue:
                pair = pert_queue.popleft()
                b4 = evaluate_condition(program.b4, contexts[pair])
                if stats is not None:
                    stats.record_condition("b4", b4)
                if b4:
                    next_same_location = queue.first_at_location(pair.location)
                    if next_same_location is not None:
                        result = yield from expand([next_same_location])
                        if result is not None:
                            return result
        return None
