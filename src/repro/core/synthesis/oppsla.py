"""OPPSLA, the top-level synthesizer (Algorithm 2).

Given a classifier and a training set of correctly-classified images,
OPPSLA runs the Metropolis-Hastings search over sketch instantiations and
returns an adversarial program.  The expensive queries all happen here,
once; afterwards the program attacks arbitrarily many images (or even, as
the transferability experiment shows, other classifiers) cheaply.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.core.dsl.ast import Program
from repro.core.dsl.grammar import Grammar
from repro.core.sketch import OnePixelSketch
from repro.core.synthesis.mh import MetropolisHastings
from repro.core.synthesis.score import (
    ProgramEvaluation,
    TrainingPair,
    TrainingSet,
    evaluate_program,
    prepare_training_set,
)
from repro.core.synthesis.trace import SynthesisTrace


@dataclass(frozen=True)
class OppslaConfig:
    """Synthesis hyper-parameters.

    Attributes
    ----------
    max_iterations:
        MH proposals (the paper's MAX_ITER; 210 in Appendix C).
    beta:
        Score temperature in ``S(P) = exp(-beta * Qbar)``.
    per_image_budget:
        Cap on queries per training image during candidate evaluation;
        ``None`` lets each run exhaust the pair space (the paper's
        setting; 8 * d1 * d2 queries worst case).
    query_budget:
        Optional cap on total synthesis queries (the paper caps at 10^6).
    score_failures:
        Score candidates by the failure-penalized query average instead
        of the paper's successes-only average.  Equivalent to the paper
        when ``per_image_budget`` is ``None``; strictly safer with one
        (see :attr:`ProgramEvaluation.penalized_avg_queries`).
    seed:
        Randomness seed for the whole synthesis run.
    """

    max_iterations: int = 210
    beta: float = 0.02
    per_image_budget: Optional[int] = None
    query_budget: Optional[int] = None
    score_failures: bool = True
    seed: int = 0


@dataclass
class SynthesisResult:
    """What a synthesis run produces.

    ``final_program`` is Algorithm 2's literal return value (the last
    accepted candidate); ``best_program`` is the evaluated candidate with
    the most successes and, among those, the lowest average query count --
    the one a practitioner would deploy.  ``program`` aliases
    ``best_program``.

    ``forwards`` is the number of forward passes this run executed,
    beside :attr:`total_queries` (the counted queries, which table hits
    are too); ``cache_hit_rate`` is the share of the images the run
    scored that no forward answered: a hit of its
    :class:`~repro.core.synthesis.score.TrainingSet`'s per-image tables,
    indexed by pair index, or of the classifier's own cache (a zoo
    classifier's keeps what earlier runs scored, so a repeated run can
    report 0 forwards).  Both cover only
    the iterations run by this call (a resumed chain restores its
    queries, not its forwards) and are ``None`` when an executor scored
    the candidates in worker processes.
    """

    final_program: Program
    final_evaluation: ProgramEvaluation
    best_program: Program
    best_evaluation: ProgramEvaluation
    trace: SynthesisTrace
    config: OppslaConfig = field(default_factory=OppslaConfig)
    forwards: Optional[int] = None
    cache_hit_rate: Optional[float] = None

    @property
    def program(self) -> Program:
        return self.best_program

    @property
    def total_queries(self) -> int:
        return self.trace.total_queries

    def attacker(self) -> OnePixelSketch:
        """The deployable attack for :attr:`program`."""
        return OnePixelSketch(self.program)

    def save(self, path: str) -> None:
        """Persist the synthesized programs and summary metrics as JSON."""
        payload = {
            "best_program": self.best_program.to_dict(),
            "final_program": self.final_program.to_dict(),
            "best_avg_queries": self.best_evaluation.avg_queries,
            "best_successes": self.best_evaluation.successes,
            "total_synthesis_queries": self.total_queries,
            "iterations": self.trace.iterations,
            "config": {
                "max_iterations": self.config.max_iterations,
                "beta": self.config.beta,
                "per_image_budget": self.config.per_image_budget,
                "query_budget": self.config.query_budget,
                "seed": self.config.seed,
            },
        }
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2)

    @staticmethod
    def load_program(path: str) -> Program:
        """Load just the deployable program from a saved result."""
        with open(path) as handle:
            payload = json.load(handle)
        return Program.from_dict(payload["best_program"])


class Oppsla:
    """The synthesizer facade.

    Example
    -------
    >>> oppsla = Oppsla(OppslaConfig(max_iterations=20, seed=7))
    >>> result = oppsla.synthesize(classifier, training_pairs)   # doctest: +SKIP
    >>> attack = result.attacker()                               # doctest: +SKIP
    """

    def __init__(self, config: OppslaConfig = None):
        self.config = config or OppslaConfig()

    def synthesize(
        self,
        classifier: Callable[[np.ndarray], np.ndarray],
        training_pairs: Union[TrainingSet, Sequence[TrainingPair]],
        initial: Optional[Program] = None,
        executor=None,
        checkpoint=None,
        resume: bool = False,
        checkpoint_interval: int = 10,
    ) -> SynthesisResult:
        """Synthesize an adversarial program for ``classifier``.

        ``training_pairs`` are (image, true_class) tuples; images must all
        share one shape (the grammar is typed by it).  They are prepared
        once into a :class:`~repro.core.synthesis.score.TrainingSet` that
        scores every candidate; pass a set already prepared for
        ``classifier`` to share its tables across runs.

        ``executor`` (a :class:`~repro.runtime.pool.WorkerPool`)
        parallelizes each candidate's per-image evaluation across worker
        processes.  The MH chain itself stays sequential -- each proposal
        depends on the previous accept decision -- but candidate
        evaluation dominates the cost, and its parallel aggregation is
        bit-identical to the sequential one, so the synthesized program
        and query accounting do not depend on the worker count.

        ``checkpoint`` (a
        :class:`~repro.runtime.checkpoint.CheckpointStore` or directory
        path) makes the run crash-safe: the MH chain is durably
        snapshotted every ``checkpoint_interval`` iterations, and
        ``resume=True`` continues a killed run from its latest snapshot
        with a bit-identical accepted-program sequence (the manifest pins
        the config and the training set's fingerprint, so resuming under
        different hyper-parameters or on other images raises
        :class:`~repro.runtime.checkpoint.CheckpointMismatch`).  A
        checkpoint directory holding snapshots is refused without
        ``resume=True`` rather than silently overwritten.
        """
        training_set = prepare_training_set(classifier, training_pairs)
        grammar = Grammar(training_set.shape)
        rng = np.random.default_rng(self.config.seed)

        store = None
        if checkpoint is not None:
            from repro.core.synthesis.mh import latest_chain_snapshot
            from repro.runtime.checkpoint import CheckpointError, as_store

            store = as_store(checkpoint)
            store.reconcile_manifest(
                {
                    "kind": "synthesis",
                    "seed": self.config.seed,
                    "beta": self.config.beta,
                    "max_iterations": self.config.max_iterations,
                    "per_image_budget": self.config.per_image_budget,
                    "query_budget": self.config.query_budget,
                    "score_failures": self.config.score_failures,
                    "images": len(training_set.pairs),
                    "training_set": training_set.fingerprint,
                }
            )
            if not resume and latest_chain_snapshot(store) is not None:
                raise CheckpointError(
                    f"checkpoint at {store.directory} already holds a chain; "
                    "pass resume=True to continue it (or point at a fresh "
                    "directory)"
                )

        usage = training_set.usage()

        def evaluate(program: Program) -> ProgramEvaluation:
            return evaluate_program(
                program,
                classifier,
                training_set,
                per_image_budget=self.config.per_image_budget,
                executor=executor,
            )

        chain = MetropolisHastings(
            grammar,
            evaluate,
            self.config.beta,
            rng,
            score_failures=self.config.score_failures,
        )
        state, trace = chain.run(
            self.config.max_iterations,
            initial=initial,
            query_budget=self.config.query_budget,
            checkpoint=store,
            checkpoint_interval=checkpoint_interval,
            resume=resume,
        )

        def quality(entry):
            evaluation = entry.evaluation
            if not evaluation.successes:
                return (0, 0.0)
            average = (
                evaluation.penalized_avg_queries
                if self.config.score_failures
                else evaluation.avg_queries
            )
            return (evaluation.successes, -average)

        best = max(trace.accepted, key=quality)
        forwards, cache_hit_rate = (
            training_set.usage_since(usage) if executor is None else (None, None)
        )
        return SynthesisResult(
            final_program=state.program,
            final_evaluation=state.evaluation,
            best_program=best.program,
            best_evaluation=best.evaluation,
            trace=trace,
            config=self.config,
            forwards=forwards,
            cache_hit_rate=cache_hit_rate,
        )
