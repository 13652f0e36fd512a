"""Differential tests for exact candidate scoring (DESIGN §17).

A :class:`TrainingSet` shares per-image tables of scores indexed by
pair index, clean scores and initial queues across every candidate of a
synthesis run.  The oracle here is the plain reference: each pair
attacked from scratch with ``OnePixelSketch(program).attack`` and the
results aggregated by hand.  Every candidate's evaluation must equal it
field for field, adversarial image bytes included, and an MH chain must
accept the same programs and pay the same queries.  The negative control
shows the comparison has teeth: a table that answers hits with another
pair's row fails it.
"""

import math

import numpy as np
import pytest

from repro.attacks.fixed_sketch import FixedSketchAttack
from repro.classifier.toy import SmoothLinearClassifier
from repro.core.dsl.ast import Program
from repro.core.dsl.grammar import Grammar
from repro.core.dsl.mutation import mutate_program
from repro.core.sketch import OnePixelSketch
from repro.core.synthesis.mh import MetropolisHastings
from repro.core.synthesis.oppsla import Oppsla, OppslaConfig
from repro.core.synthesis.score import (
    ProgramEvaluation,
    TrainingSet,
    evaluate_program,
)
from repro.runtime.cache import image_digest
from repro.testkit.differential import tiny_network_classifier

SEEDS = (1, 2, 3)
BUDGET = 64
CANDIDATES = 10
#: Candidates also scored without a budget (the whole pair space).
UNBUDGETED = 3


def _classifier(kind: str, seed: int):
    if kind == "smooth":
        return SmoothLinearClassifier(
            image_shape=(6, 6, 3), num_classes=3, seed=seed
        ), (6, 6, 3)
    return tiny_network_classifier(image_size=8, num_classes=3, seed=seed), (
        8, 8, 3,
    )


def _pairs(classifier, shape, seed, each=2):
    """``each`` images the fixed sketch breaks within the budget and
    ``each`` it does not, so successes and failures are both compared."""
    rng = np.random.default_rng(seed)
    broken, intact = [], []
    for _ in range(200):
        image = rng.uniform(0.0, 1.0, size=shape)
        label = int(np.argmax(classifier(image)))
        result = FixedSketchAttack().attack(classifier, image, label, budget=BUDGET)
        bucket = broken if result.success else intact
        if len(bucket) < each:
            bucket.append((image, label))
        if len(broken) == each and len(intact) == each:
            break
    assert broken and intact, "screening found no mix of outcomes"
    return broken + intact


def _candidates(shape, seed):
    """A random program followed by a walk of mutations, like a chain."""
    grammar = Grammar(shape[:2])
    rng = np.random.default_rng(100 + seed)
    program = grammar.random_program(rng)
    programs = [Program.constant(False), program]
    for _ in range(CANDIDATES - 2):
        program = mutate_program(program, grammar, rng)
        programs.append(program)
    return programs


def _reference(program, classifier, pairs, budget):
    """Each pair attacked from scratch; aggregated without the module."""
    sketch = OnePixelSketch(program)
    results = tuple(
        sketch.attack(classifier, image, label, budget=budget)
        for image, label in pairs
    )
    success_queries = [r.queries for r in results if r.success]
    return ProgramEvaluation(
        avg_queries=(
            sum(success_queries) / len(success_queries)
            if success_queries
            else math.inf
        ),
        successes=len(success_queries),
        total_images=len(results),
        total_queries=sum(r.queries for r in results),
        results=results,
    )


def _key(evaluation):
    return (
        evaluation.avg_queries,
        evaluation.successes,
        evaluation.total_images,
        evaluation.total_queries,
        [
            (
                r.success,
                r.queries,
                r.pair,
                r.adversarial_class,
                None
                if r.adversarial_image is None
                else (
                    r.adversarial_image.dtype.str,
                    r.adversarial_image.shape,
                    r.adversarial_image.tobytes(),
                ),
            )
            for r in evaluation.results
        ],
    )


class _LyingTable(list):
    """A table that answers a hit with another pair's row: the first
    row stored for any other pair, when there is one."""

    def __getitem__(self, key):
        row = list.__getitem__(self, key)
        if row is None:
            return None
        for other, stored in enumerate(self):
            if stored is not None and other != key:
                return stored
        return row


def _scored_rows(training_set):
    return sum(row is not None for table in training_set.tables for row in table)


@pytest.fixture(params=["smooth", "network"])
def kind(request):
    return request.param


@pytest.mark.parametrize("seed", SEEDS)
def test_every_candidate_matches_the_reference(kind, seed):
    classifier, shape = _classifier(kind, seed)
    pairs = _pairs(classifier, shape, seed)
    training_set = TrainingSet(classifier, pairs)
    successes = 0
    for index, program in enumerate(_candidates(shape, seed)):
        for budget in (BUDGET, None) if index < UNBUDGETED else (BUDGET,):
            prepared = training_set.evaluate(program, budget)
            assert _key(prepared) == _key(
                _reference(program, classifier, pairs, budget)
            )
            successes += prepared.successes
    assert successes > 0
    assert training_set.hits > 0  # candidates shared queries
    # every miss filled a new row: no pair of an image was scored twice
    assert training_set.misses == len(pairs) + _scored_rows(training_set)


@pytest.mark.parametrize("seed", SEEDS)
def test_chain_matches_the_reference_chain(kind, seed):
    """Oppsla with its prepared set accepts what a chain scored from
    scratch accepts, and pays the same queries."""
    classifier, shape = _classifier(kind, seed)
    pairs = _pairs(classifier, shape, seed)
    config = OppslaConfig(
        max_iterations=12, beta=0.05, per_image_budget=BUDGET, seed=seed
    )
    result = Oppsla(config).synthesize(classifier, pairs)
    chain = MetropolisHastings(
        Grammar(shape[:2]),
        lambda program: _reference(program, classifier, pairs, BUDGET),
        config.beta,
        np.random.default_rng(config.seed),
        score_failures=config.score_failures,
    )
    _, reference = chain.run(config.max_iterations)

    def accepted(trace):
        return [
            (e.iteration, e.program, _key(e.evaluation), e.cumulative_queries)
            for e in trace.accepted
        ]

    assert accepted(result.trace) == accepted(reference)
    assert result.total_queries == reference.total_queries
    assert result.forwards < result.total_queries
    assert 0.0 < result.cache_hit_rate < 1.0


def test_lying_table_fails_the_comparison():
    """Negative control: the same sweep with tables that answer hits
    with another pair's row must diverge from the reference."""
    classifier, shape = _classifier("smooth", 1)
    pairs = _pairs(classifier, shape, 1)
    lying = TrainingSet(classifier, pairs)
    lying.tables = [_LyingTable(table) for table in lying.tables]
    diverged = [
        _key(lying.evaluate(program, BUDGET))
        != _key(_reference(program, classifier, pairs, BUDGET))
        for program in _candidates(shape, 1)
    ]
    assert lying.hits > 0
    assert any(diverged)


def test_classifier_sees_each_image_once_per_run():
    """``forwards`` counts what reached the classifier, and within one
    run no image reaches it twice."""
    classifier, shape = _classifier("smooth", 2)
    pairs = _pairs(classifier, shape, 2)
    seen = []

    def recording(image):
        seen.append(image_digest(image))
        return classifier(image)

    result = Oppsla(
        OppslaConfig(max_iterations=8, per_image_budget=BUDGET, seed=2)
    ).synthesize(recording, pairs)
    assert result.forwards == len(seen) == len(set(seen))
    assert result.forwards < result.total_queries


def test_plain_pairs_and_a_prepared_set_agree():
    classifier, shape = _classifier("network", 1)
    pairs = _pairs(classifier, shape, 1)
    training_set = TrainingSet(classifier, pairs)
    for program in _candidates(shape, 1)[:3]:
        assert _key(
            evaluate_program(program, classifier, pairs, per_image_budget=BUDGET)
        ) == _key(
            evaluate_program(
                program, classifier, training_set, per_image_budget=BUDGET
            )
        )


def test_set_checks_its_input():
    classifier, _ = _classifier("smooth", 1)
    with pytest.raises(ValueError, match="non-empty"):
        TrainingSet(classifier, [])
    with pytest.raises(ValueError, match="one shape"):
        TrainingSet(
            classifier, [(np.zeros((6, 6, 3)), 0), (np.zeros((5, 5, 3)), 0)]
        )
    prepared = TrainingSet(classifier, [(np.zeros((6, 6, 3)), 0)])
    other, _ = _classifier("smooth", 2)
    with pytest.raises(ValueError, match="different classifier"):
        evaluate_program(Program.constant(False), other, prepared)
