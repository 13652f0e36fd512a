"""SuOPA: the original One Pixel Attack (Su et al., 2017).

Differential evolution over candidate vectors ``(row, col, r, g, b)``:
positions range over the pixel grid and colors over the *full* ``[0, 1]``
cube (not just the corners -- the paper highlights this difference).  The
fitness to minimize is the true class's confidence; DE/rand/1 mutation
with ``F = 0.5`` produces one child per parent each generation, and the
child replaces the parent when fitter.  The attack stops early as soon as
any evaluated candidate is misclassified.

Because the whole initial population is evaluated before any evolution,
the minimal number of queries equals ``population_size`` -- the "minimum
400 queries" behaviour the paper notes in Section 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.attacks.base import AttackResult, OnePixelAttack
from repro.core.stepping import (
    AttackSteps,
    Query,
    QueryBatch,
    StepCounter,
    resolve_batch_window,
)
from repro.classifier.blackbox import QueryBudgetExceeded


@dataclass(frozen=True)
class SuOPAConfig:
    """Hyper-parameters of the differential-evolution attack."""

    population_size: int = 400
    max_generations: int = 100
    differential_weight: float = 0.5  # F in DE/rand/1
    color_mean: float = 0.5
    color_std: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if self.population_size < 4:
            raise ValueError("DE/rand/1 needs a population of at least 4")
        if not 0 < self.differential_weight <= 2:
            raise ValueError("differential weight must be in (0, 2]")


class SuOPA(OnePixelAttack):
    """One Pixel Attack via differential evolution."""

    def __init__(self, config: SuOPAConfig = None):
        self.config = config or SuOPAConfig()

    @property
    def name(self) -> str:
        return "SuOPA"

    def steps(
        self,
        image: np.ndarray,
        true_class: int,
        budget: Optional[int] = None,
        target_class: Optional[int] = None,
        batch_size: Optional[int] = None,
    ) -> AttackSteps:
        """DE as a generator; batches population/generation evaluations.

        With a batch window, the initial population and each DE
        generation are evaluated in blocks of up to ``batch_size``
        speculative queries.  A generation's random index draws are
        score-independent, so they are precomputed in index order (the
        rng stream is identical to the scalar path's); mutants are built
        from the population *as of batch construction*, and a block is
        rebuilt from the first member whose donors ``{r1, r2, r3}`` were
        replaced by an earlier consumption -- the precomputed draws are
        reused, never redrawn, so the rebuilt mutant is exactly the
        scalar path's.  Charges happen per consumed member, keeping
        query counts and truncation points bit-identical.
        """
        self._validate(image)
        if batch_size is None:
            batch_size = self.batch_size
        window = resolve_batch_window(batch_size)
        config = self.config
        rng = np.random.default_rng(config.seed)
        counter = StepCounter(budget)
        d1, d2 = image.shape[:2]

        def perturbed_for(candidate: np.ndarray) -> np.ndarray:
            row, col = int(round(candidate[0])), int(round(candidate[1]))
            perturbed = image.copy()
            perturbed[row, col] = candidate[2:5]
            return perturbed

        def judge(candidate: np.ndarray, scores):
            """Fitness to minimize, or a success result (pure).

            Untargeted fitness is the true class's confidence; targeted
            fitness is the target's negated confidence.
            """
            winner = int(np.argmax(scores))
            won = winner != true_class if target_class is None else winner == target_class
            if won:
                row, col = int(round(candidate[0])), int(round(candidate[1]))
                return None, AttackResult(
                    success=True,
                    queries=counter.count,
                    location=(row, col),
                    perturbation=candidate[2:5].copy(),
                    adversarial_class=winner,
                )
            if target_class is None:
                return float(scores[true_class]), None
            return -float(scores[target_class]), None

        def evaluate(candidate: np.ndarray):
            """Scalar-mode evaluation of one candidate (subgenerator)."""
            scores = yield counter.submit(perturbed_for(candidate))
            return judge(candidate, scores)

        def clip(candidate: np.ndarray) -> np.ndarray:
            candidate[0] = np.clip(candidate[0], 0, d1 - 1)
            candidate[1] = np.clip(candidate[1], 0, d2 - 1)
            candidate[2:5] = np.clip(candidate[2:5], 0.0, 1.0)
            return candidate

        def block_span(remaining: int) -> int:
            """Next block size: the window, capped by work and budget."""
            if counter.allowance == 0:
                counter.charge()  # raises at the scalar stop point
            span = min(window, remaining)
            if counter.budget is not None:
                span = min(span, counter.allowance)
            return span

        size = config.population_size
        population = np.empty((size, 5))
        population[:, 0] = rng.uniform(0, d1 - 1, size=size)
        population[:, 1] = rng.uniform(0, d2 - 1, size=size)
        population[:, 2:5] = np.clip(
            rng.normal(config.color_mean, config.color_std, size=(size, 3)), 0.0, 1.0
        )
        fitness = np.empty(size)

        try:
            if window <= 0:
                for index in range(size):
                    value, result = yield from evaluate(population[index])
                    if result is not None:
                        return result
                    fitness[index] = value
            else:
                position = 0
                while position < size:
                    span = block_span(size - position)
                    members = range(position, position + span)
                    batch = QueryBatch(tuple(
                        Query(perturbed_for(population[i])) for i in members
                    ))
                    answers = np.asarray((yield batch), dtype=np.float64)
                    for offset, index in enumerate(members):
                        counter.charge()
                        batch.note(batch.queries[offset], answers[offset])
                        value, result = judge(population[index], answers[offset])
                        if result is not None:
                            return result
                        fitness[index] = value
                    position += span
            for _ in range(config.max_generations):
                if window <= 0:
                    for index in range(size):
                        r1, r2, r3 = _distinct_indices(rng, size, exclude=index)
                        mutant = population[r1] + config.differential_weight * (
                            population[r2] - population[r3]
                        )
                        mutant = clip(mutant)
                        value, result = yield from evaluate(mutant)
                        if result is not None:
                            return result
                        if value < fitness[index]:
                            population[index] = mutant
                            fitness[index] = value
                    continue
                # Batched generation.  The draws are score-independent,
                # so precomputing them in index order leaves the rng
                # stream exactly as the scalar path consumed it.
                draws = [
                    _distinct_indices(rng, size, exclude=index)
                    for index in range(size)
                ]
                index = 0
                while index < size:
                    span = block_span(size - index)
                    members = list(range(index, index + span))
                    mutants = []
                    for j in members:
                        r1, r2, r3 = draws[j]
                        mutant = population[r1] + config.differential_weight * (
                            population[r2] - population[r3]
                        )
                        mutants.append(clip(mutant))
                    batch = QueryBatch(tuple(
                        Query(perturbed_for(mutant)) for mutant in mutants
                    ))
                    answers = np.asarray((yield batch), dtype=np.float64)
                    replaced = set()
                    for offset, j in enumerate(members):
                        if replaced.intersection(draws[j]):
                            # Donors changed since this mutant was built:
                            # the speculation is stale.  Discard the rest
                            # of the block (uncharged) and rebuild from j
                            # with the same draws and fresh population.
                            break
                        counter.charge()
                        batch.note(batch.queries[offset], answers[offset])
                        value, result = judge(mutants[offset], answers[offset])
                        if result is not None:
                            return result
                        if value < fitness[j]:
                            population[j] = mutants[offset]
                            fitness[j] = value
                            replaced.add(j)
                        index = j + 1
        except QueryBudgetExceeded:
            pass
        return AttackResult(success=False, queries=counter.count)


def _distinct_indices(rng: np.random.Generator, size: int, exclude: int):
    """Three distinct population indices, all different from ``exclude``."""
    choices = rng.choice(size - 1, size=3, replace=False)
    # shift values >= exclude up by one to skip the excluded index
    return tuple(int(c) + (1 if c >= exclude else 0) for c in choices)
