"""The Sketch+Random ablation baseline (Appendix C).

To isolate the value of the *stochastic search* (as opposed to the
sketch + conditions themselves), the paper compares OPPSLA against
sampling the same number of random well-typed instantiations and keeping
the one with the fewest queries on the training set.  This class mirrors
:class:`repro.core.synthesis.oppsla.Oppsla`'s interface so the two slot
into the same experiment harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.core.dsl.ast import Program
from repro.core.dsl.grammar import Grammar
from repro.core.synthesis.oppsla import OppslaConfig, SynthesisResult
from repro.core.synthesis.score import (
    ProgramEvaluation,
    TrainingPair,
    TrainingSet,
    evaluate_program,
    prepare_training_set,
)
from repro.core.synthesis.trace import SynthesisTrace


@dataclass(frozen=True)
class RandomSearchConfig:
    """How many random instantiations to draw, and evaluation knobs."""

    num_samples: int = 210  # matches the paper's 210 MH iterations
    per_image_budget: Optional[int] = None
    seed: int = 0


class RandomProgramSearch:
    """Sample N random programs, return the best on the training set."""

    def __init__(self, config: RandomSearchConfig = None):
        self.config = config or RandomSearchConfig()

    def synthesize(
        self,
        classifier: Callable[[np.ndarray], np.ndarray],
        training_pairs: Union[TrainingSet, Sequence[TrainingPair]],
    ) -> SynthesisResult:
        training_set = prepare_training_set(classifier, training_pairs)
        if self.config.num_samples <= 0:
            raise ValueError("num_samples must be positive")
        grammar = Grammar(training_set.shape)
        usage = training_set.usage()
        rng = np.random.default_rng(self.config.seed)
        trace = SynthesisTrace()
        best_program: Optional[Program] = None
        best_eval: Optional[ProgramEvaluation] = None
        for iteration in range(self.config.num_samples):
            program = grammar.random_program(rng)
            evaluation = evaluate_program(
                program,
                classifier,
                training_set,
                per_image_budget=self.config.per_image_budget,
            )
            trace.total_queries += evaluation.total_queries
            trace.iterations = iteration + 1
            if best_eval is None or _better(evaluation, best_eval):
                best_program, best_eval = program, evaluation
                trace.record_accept(iteration, program, evaluation)
        forwards, cache_hit_rate = training_set.usage_since(usage)
        return SynthesisResult(
            final_program=best_program,
            final_evaluation=best_eval,
            best_program=best_program,
            best_evaluation=best_eval,
            trace=trace,
            config=OppslaConfig(
                max_iterations=self.config.num_samples,
                per_image_budget=self.config.per_image_budget,
                seed=self.config.seed,
            ),
            forwards=forwards,
            cache_hit_rate=cache_hit_rate,
        )


def _better(candidate: ProgramEvaluation, incumbent: ProgramEvaluation) -> bool:
    """More successes wins; then the lower failure-penalized average.

    The penalized average (rather than the successes-only one) keeps the
    comparison meaningful under a ``per_image_budget``; see
    :attr:`ProgramEvaluation.penalized_avg_queries`.
    """
    if candidate.successes != incumbent.successes:
        return candidate.successes > incumbent.successes
    return candidate.penalized_avg_queries < incumbent.penalized_avg_queries
