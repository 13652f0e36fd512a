"""Sparse-RS (Croce et al., AAAI 2022), specialized to one pixel.

Sparse-RS is the random-search framework the paper treats as the
query-minimizing state of the art.  For the L0 / pixel threat model with
``k`` perturbed pixels it keeps a current set of (location, color) choices
with colors restricted to the RGB-cube corners, and at each step resamples
the locations and/or colors of a random subset, accepting the candidate
when the margin loss does not increase.  With ``k = 1`` the subset is the
single pixel, so a step either moves the pixel (keeping its color) or
recolors it (keeping its location); the probability of a location move
decays over time, mirroring Sparse-RS's shrinking resampling schedule.

The margin loss is the standard untargeted objective
``f(x')_{c_x} - max_{c != c_x} f(x')_c``; the attack succeeds as soon as
it goes negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.attacks.base import AttackResult, OnePixelAttack
from repro.classifier.blackbox import QueryBudgetExceeded
from repro.core.geometry import NUM_CORNERS, RGB_CORNERS
from repro.core.stepping import (
    AttackSteps,
    Query,
    QueryBatch,
    StepCounter,
    resolve_batch_window,
)


@dataclass(frozen=True)
class SparseRSConfig:
    """Hyper-parameters of the one-pixel Sparse-RS.

    ``alpha_init`` and ``schedule_half_life`` shape the probability of
    proposing a location move (vs. a color move) at step ``t``:
    ``p_loc(t) = max(alpha_min, alpha_init * 0.5^(t / half_life))``.
    Early steps explore locations aggressively; later steps mostly
    fine-tune the color, as in the original's decaying schedule.
    """

    alpha_init: float = 0.8
    alpha_min: float = 0.1
    schedule_half_life: int = 200
    max_steps: int = 20000
    seed: int = 0


def margin(
    scores: np.ndarray, true_class: int, target_class: int = None
) -> float:
    """The loss the random search descends; negative iff the attack won.

    Untargeted: ``f_cx - max_{c != cx} f_c`` (negative iff misclassified).
    Targeted: ``max_{c != t} f_c - f_t`` (negative iff classified as t).
    """
    if target_class is None:
        others = np.delete(scores, true_class)
        return float(scores[true_class] - others.max())
    others = np.delete(scores, target_class)
    return float(others.max() - scores[target_class])


class SparseRS(OnePixelAttack):
    """The one-pixel specialization of Sparse-RS."""

    def __init__(self, config: SparseRSConfig = None):
        self.config = config or SparseRSConfig()

    @property
    def name(self) -> str:
        return "Sparse-RS"

    def steps(
        self,
        image: np.ndarray,
        true_class: int,
        budget: Optional[int] = None,
        target_class: Optional[int] = None,
        batch_size: Optional[int] = None,
    ) -> AttackSteps:
        """The random search as a generator; speculates the next steps.

        A step's randomness -- ``rng.uniform() < p_loc``, then a location
        or a corner -- never depends on a score.  So with a batch window
        the candidates of the next steps, built against the current
        (location, corner), are posed as one :class:`QueryBatch` of up
        to ``min(window, allowance)`` members; the opening candidate
        rides in the first block.  Each step's draws are taken once, in
        the scalar path's order, and reused by every rebuild.

        Consumption walks the steps in order.  A step's candidate is
        rebuilt from its draws and the current pair; when it equals that
        pair the step is skipped uncharged (the scalar ``continue``) and
        its posed member, if any, is discarded.  Otherwise the next
        member is charged and noted only if it was posed for this step
        with the same candidate; the first member that fails this ends
        the block uncharged, and the next block is posed from that step.
        An accepted location move keeps the corner, so later location
        moves stay valid.  Results, counts and the consumed query stream
        are the scalar path's; window ``0`` is the scalar path itself.
        """
        self._validate(image)
        if batch_size is None:
            batch_size = self.batch_size
        window = resolve_batch_window(batch_size)
        config = self.config
        rng = np.random.default_rng(config.seed)
        counter = StepCounter(budget)
        d1, d2 = image.shape[:2]
        half_life = max(config.schedule_half_life, 1)

        def draw(step: int):
            """One step's randomness: a new location or a new corner."""
            p_loc = max(
                config.alpha_min, config.alpha_init * 0.5 ** (step / half_life)
            )
            if rng.uniform() < p_loc:
                return (int(rng.integers(0, d1)), int(rng.integers(0, d2))), None
            return None, int(rng.integers(0, NUM_CORNERS))

        def candidate(drawn, location: Tuple[int, int], corner: int):
            """A step's (location, corner) built against the current pair."""
            moved_to, recolor = drawn
            if moved_to is not None:
                return moved_to, corner
            if recolor == corner:
                recolor = (recolor + 1) % NUM_CORNERS
            return location, recolor

        def perturbed(pair) -> np.ndarray:
            location, corner = pair
            out = image.copy()
            out[location[0], location[1]] = RGB_CORNERS[corner]
            return out

        def judge(pair, scores):
            """The candidate's loss, and the success result if it won."""
            loss = margin(scores, true_class, target_class)
            if loss < 0:
                location, corner = pair
                return loss, AttackResult(
                    success=True,
                    queries=counter.count,
                    location=location,
                    perturbation=RGB_CORNERS[corner],
                    adversarial_class=int(np.argmax(scores)),
                )
            return loss, None

        def consume(batch: QueryBatch, answers, index: int, pair):
            """Charge and note one batch member, then judge it."""
            counter.charge()
            batch.note(batch.queries[index], answers[index])
            return judge(pair, answers[index])

        try:
            location = (int(rng.integers(0, d1)), int(rng.integers(0, d2)))
            current = (location, int(rng.integers(0, NUM_CORNERS)))
            if window <= 0:
                best_loss, result = judge(
                    current, (yield counter.submit(perturbed(current)))
                )
                if result is not None:
                    return result
                for step in range(config.max_steps):
                    pair = candidate(draw(step), *current)
                    if pair == current:
                        continue
                    loss, result = judge(
                        pair, (yield counter.submit(perturbed(pair)))
                    )
                    if result is not None:
                        return result
                    if loss <= best_loss:
                        best_loss, current = loss, pair
            else:
                draws = []  # step -> its draw, taken in the scalar order
                best_loss = None  # set when the opening candidate is consumed
                step = 0  # the next step to consume
                while True:
                    if counter.allowance == 0:
                        counter.charge()  # raises at the scalar stop point
                    size = window
                    if counter.budget is not None:
                        size = min(size, counter.allowance)
                    members = [] if best_loss is not None else [(None, current)]
                    probe = step
                    while len(members) < size and probe < config.max_steps:
                        if probe == len(draws):
                            draws.append(draw(probe))
                        pair = candidate(draws[probe], *current)
                        if pair != current:
                            members.append((probe, pair))
                        probe += 1
                    if not members:
                        break
                    batch = QueryBatch(
                        tuple(Query(perturbed(pair)) for _, pair in members)
                    )
                    answers = np.asarray((yield batch), dtype=np.float64)
                    index = 0
                    if best_loss is None:
                        best_loss, result = consume(batch, answers, 0, current)
                        if result is not None:
                            return result
                        index = 1
                    while index < len(members):
                        owner, posed = members[index]
                        pair = candidate(draws[step], *current)
                        if pair == current:  # the scalar path's `continue`
                            if owner == step:
                                index += 1  # discard the stale member
                            step += 1
                            continue
                        if owner != step or posed != pair:
                            break  # stale speculation: re-pose from this step
                        loss, result = consume(batch, answers, index, pair)
                        if result is not None:
                            return result
                        if loss <= best_loss:
                            best_loss, current = loss, pair
                        index += 1
                        step += 1
        except QueryBudgetExceeded:
            pass
        return AttackResult(success=False, queries=counter.count)
