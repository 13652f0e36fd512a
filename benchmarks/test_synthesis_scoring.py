"""Exact candidate scoring: seconds per MH iteration, one prepared set.

Algorithm 2 scores every proposal on the same training pairs.  A
:class:`~repro.core.synthesis.score.TrainingSet` prepared once per run
(DESIGN §17) answers repeated queries from an exact cache -- still
counted -- and reuses each pair's clean scores and initial queue.  This
gate runs one MH chain twice on a trained vgg16bn at 8x8, scalar float64
forwards: once scored with one prepared set, once with a fresh set per
candidate (plain pairs, as ``evaluate_program`` prepares them for a
single evaluation).  The accepted-program
sequences, evaluations and query counts must be identical, and the
prepared set must be at least **3x** faster per MH iteration.

Both chains score through ``TrainedModel.frozen_classifier()``: the zoo
classifier's bits (float64, frozen) without the zoo classifier's own
cache, which the first chain would otherwise warm for the second, so
the gate would time that cache instead of the set.
"""

import time

import numpy as np

from conftest import write_bench_result, write_result
from repro.attacks.fixed_sketch import FixedSketchAttack
from repro.core.dsl.grammar import Grammar
from repro.core.synthesis.mh import MetropolisHastings
from repro.core.synthesis.score import TrainingSet, evaluate_program
from repro.models.zoo import ModelZoo, ZooConfig

ARCH = "vgg16bn"
IMAGE_SIZE = 8
TRAIN_PAIRS = 12
PER_IMAGE_BUDGET = 256
BETA = 0.01
ITERATIONS = 30  # one chain of the paper_pipeline benchmark
SEED = 0
MIN_SPEEDUP = 3.0


def _setup(cache_dir):
    """A cache-less classifier over a trained vgg16bn, and pairs the
    fixed sketch breaks in budget."""
    zoo = ModelZoo(
        ZooConfig(
            image_size=IMAGE_SIZE, train_per_class=60, epochs=4, cache_dir=cache_dir
        )
    )
    trained = zoo.get(ARCH)
    candidates = zoo.correctly_classified(ARCH, split="train").pairs()
    probe = FixedSketchAttack()
    pairs = []
    for index in np.random.default_rng(0).permutation(len(candidates)):
        image, label = candidates[index]
        if probe.attack(
            trained.classifier, image, label, budget=PER_IMAGE_BUDGET
        ).success:
            pairs.append((image, label))
            if len(pairs) == TRAIN_PAIRS:
                break
    classifier = trained.frozen_classifier()
    assert classifier.cache is None
    return classifier, pairs


def _chain(evaluate):
    """(seconds per MH iteration, accepted sequence, total queries)."""
    chain = MetropolisHastings(
        Grammar((IMAGE_SIZE, IMAGE_SIZE)),
        evaluate,
        BETA,
        np.random.default_rng(SEED),
        score_failures=True,
    )
    started = time.perf_counter()
    _, trace = chain.run(ITERATIONS)
    seconds = time.perf_counter() - started
    accepted = [
        (
            entry.iteration,
            entry.program,
            entry.evaluation.total_queries,
            [
                (r.success, r.queries, r.pair, r.adversarial_class)
                for r in entry.evaluation.results
            ],
        )
        for entry in trace.accepted
    ]
    return seconds / (ITERATIONS + 1), accepted, trace.total_queries


def test_prepared_set_speeds_up_mh_iterations(results_dir, tmp_path_factory):
    classifier, pairs = _setup(str(tmp_path_factory.mktemp("zoo")))
    assert len(pairs) == TRAIN_PAIRS

    fresh_s, fresh_accepted, fresh_queries = _chain(
        lambda program: evaluate_program(
            program, classifier, pairs, per_image_budget=PER_IMAGE_BUDGET
        )
    )
    training_set = TrainingSet(classifier, pairs)
    prepared_s, prepared_accepted, prepared_queries = _chain(
        lambda program: training_set.evaluate(program, PER_IMAGE_BUDGET)
    )

    # correctness before speed: the chains must be the same chain
    assert prepared_accepted == fresh_accepted, "accepted sequences differ"
    assert prepared_queries == fresh_queries
    forwards, hit_rate = training_set.usage_since((0, 0))
    speedup = fresh_s / prepared_s

    lines = [
        f"exact candidate scoring ({ARCH} {IMAGE_SIZE}x{IMAGE_SIZE} float64, "
        f"{TRAIN_PAIRS} pairs, per-image budget {PER_IMAGE_BUDGET}, "
        f"{ITERATIONS} MH iterations)",
        f"  counted queries:          {prepared_queries}",
        f"  forward passes (prepared): {forwards} "
        f"(cache hit rate {hit_rate:.3f})",
        f"  fresh set per candidate:  {fresh_s * 1000:7.1f} ms/iteration",
        f"  one prepared set:         {prepared_s * 1000:7.1f} ms/iteration",
        f"  speedup:                  {speedup:.2f}x",
        "  accepted sequences and query counts identical",
    ]
    write_result(results_dir, "synthesis_scoring", "\n".join(lines))
    write_bench_result(
        results_dir,
        "synthesis_scoring",
        [
            ("fresh_s_per_iteration", fresh_s, "s"),
            ("prepared_s_per_iteration", prepared_s, "s"),
            ("speedup", speedup, "x"),
            ("queries", prepared_queries, "count"),
            ("forwards", forwards, "count"),
        ],
    )
    assert speedup >= MIN_SPEEDUP, (
        f"prepared set only {speedup:.2f}x faster per MH iteration "
        f"(need >= {MIN_SPEEDUP}x)"
    )
