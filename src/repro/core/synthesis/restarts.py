"""Multi-restart synthesis.

A single MH chain can stall in a poor region of program space (a known
MCMC failure mode; our quickstart-scale experiments show visible
seed-to-seed variance).  Running ``R`` independent chains from different
seeds and keeping the best program trades a linear query-cost factor for
much lower variance -- the standard stochastic-search remedy, kept out of
:class:`~repro.core.synthesis.oppsla.Oppsla` so the faithful single-chain
Algorithm 2 stays pristine.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Callable, List, Sequence

import numpy as np

from repro.core.synthesis.oppsla import Oppsla, OppslaConfig, SynthesisResult
from repro.core.synthesis.score import TrainingPair, prepare_training_set


@dataclass
class RestartSummary:
    """The best result plus every chain's outcome for inspection."""

    best: SynthesisResult
    all_results: List[SynthesisResult]

    @property
    def total_queries(self) -> int:
        return sum(result.total_queries for result in self.all_results)


def synthesize_with_restarts(
    classifier: Callable[[np.ndarray], np.ndarray],
    training_pairs: Sequence[TrainingPair],
    config: OppslaConfig = None,
    restarts: int = 3,
    checkpoint_dir: str = None,
    resume: bool = False,
    checkpoint_interval: int = 10,
) -> RestartSummary:
    """Run ``restarts`` independent OPPSLA chains; keep the best program.

    Chain ``i`` uses seed ``config.seed + i``; "best" means most training
    successes, then the lowest (failure-penalized, if configured) average
    query count -- the same ordering OPPSLA itself uses.  All chains
    score candidates with one
    :class:`~repro.core.synthesis.score.TrainingSet`, so a query one
    chain already posed costs the next no forward pass (it is still
    counted).

    ``checkpoint_dir`` gives each chain its own durable checkpoint under
    ``checkpoint_dir/chain-<i>``.  With ``resume=True`` a killed restart
    sweep picks up where it died: chains that already ran to their final
    snapshot restore instantly (zero queries re-posed), and the chain
    that was interrupted mid-run continues bit-identically from its last
    snapshot.
    """
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    config = config or OppslaConfig()
    training_set = prepare_training_set(classifier, training_pairs)
    results: List[SynthesisResult] = []
    for index in range(restarts):
        chain_config = replace(config, seed=config.seed + index)
        chain_checkpoint = (
            os.path.join(checkpoint_dir, f"chain-{index}")
            if checkpoint_dir is not None
            else None
        )
        results.append(
            Oppsla(chain_config).synthesize(
                classifier,
                training_set,
                checkpoint=chain_checkpoint,
                resume=resume,
                checkpoint_interval=checkpoint_interval,
            )
        )

    def quality(result: SynthesisResult):
        evaluation = result.best_evaluation
        if not evaluation.successes:
            return (0, 0.0)
        average = (
            evaluation.penalized_avg_queries
            if config.score_failures
            else evaluation.avg_queries
        )
        return (evaluation.successes, -average)

    best = max(results, key=quality)
    return RestartSummary(best=best, all_results=results)
