"""Tests for the generator-based attack stepping protocol.

Every attack must behave identically whether it is driven by its own
``attack()`` method or stepped externally through ``steps()`` -- same
result, same query count, same perturbation.  That equivalence is what
lets the serving layer interleave attacks without changing what the
paper measures.
"""

import numpy as np
import pytest

from repro.attacks.corner_search import CornerSearch, CornerSearchConfig
from repro.attacks.fixed_sketch import FixedSketchAttack
from repro.attacks.random_search import UniformRandomAttack, UniformRandomConfig
from repro.attacks.sparse_rs import SparseRS, SparseRSConfig
from repro.attacks.su_opa import SuOPA, SuOPAConfig
from repro.classifier.blackbox import QueryBudgetExceeded
from repro.core.stepping import Query, StepCounter, drive_steps


@pytest.fixture
def image(toy_shape):
    return np.linspace(0, 1, int(np.prod(toy_shape))).reshape(toy_shape)


def _attacks():
    return [
        FixedSketchAttack(),
        UniformRandomAttack(UniformRandomConfig(seed=3)),
        SuOPA(SuOPAConfig(population_size=6, max_generations=3, seed=3)),
        SparseRS(SparseRSConfig(max_steps=40, seed=3)),
        CornerSearch(CornerSearchConfig(seed=3)),
    ]


class TestStepCounter:
    def test_counts_at_pose_time(self):
        counter = StepCounter(budget=3)
        first = counter.submit(np.zeros((2, 2, 3)))
        assert isinstance(first, Query)
        assert first.counted
        assert counter.count == 1

    def test_budget_refusal_matches_counting_classifier(self):
        counter = StepCounter(budget=2)
        counter.submit(np.zeros((2, 2, 3)))
        counter.submit(np.zeros((2, 2, 3)))
        with pytest.raises(QueryBudgetExceeded) as info:
            counter.submit(np.zeros((2, 2, 3)))
        assert info.value.budget == 2
        assert counter.count == 2  # refused query not counted

    def test_unbudgeted(self):
        counter = StepCounter(budget=None)
        for _ in range(10):
            counter.submit(np.zeros((2, 2, 3)))
        assert counter.count == 10

    def test_budget_validated_like_counting_classifier(self):
        assert StepCounter(budget=np.int64(3)).budget == 3
        with pytest.raises(ValueError):
            StepCounter(budget=-1)
        with pytest.raises(TypeError):
            StepCounter(budget=1.5)


class TestDriveEquivalence:
    """steps() + drive_steps == attack(), bit for bit."""

    @pytest.mark.parametrize("attack", _attacks(), ids=lambda a: a.name)
    def test_same_result_as_attack(self, attack, linear_classifier, image):
        true_class = int(np.argmax(linear_classifier(image)))
        direct = attack.attack(linear_classifier, image, true_class, budget=300)
        stepped = drive_steps(
            attack.steps(image, true_class, budget=300), linear_classifier
        )
        assert stepped.success == direct.success
        assert stepped.queries == direct.queries
        assert stepped.location == direct.location
        if direct.perturbation is None:
            assert stepped.perturbation is None
        else:
            assert np.array_equal(stepped.perturbation, direct.perturbation)

    @pytest.mark.parametrize("attack", _attacks(), ids=lambda a: a.name)
    def test_counted_queries_match_result(self, attack, linear_classifier, image):
        """Externally observed counted queries == the attack's own tally."""
        true_class = int(np.argmax(linear_classifier(image)))
        steps = attack.steps(image, true_class, budget=300)
        counted = 0
        try:
            request = next(steps)
            while True:
                assert isinstance(request, Query)
                if request.counted:
                    counted += 1
                request = steps.send(linear_classifier(request.image))
        except StopIteration as stop:
            result = stop.value
        assert counted == result.queries

    def test_sketch_clean_probe_is_uncounted(self, linear_classifier, image):
        """The first yield of a sketch attack is the threat-model's clean
        score lookup, not an attack submission."""
        true_class = int(np.argmax(linear_classifier(image)))
        steps = FixedSketchAttack().steps(image, true_class, budget=50)
        first = next(steps)
        assert not first.counted
        assert np.array_equal(first.image, image)
        steps.close()

    def test_budget_zero_yields_no_counted_queries(self, linear_classifier, image):
        true_class = int(np.argmax(linear_classifier(image)))
        result = drive_steps(
            FixedSketchAttack().steps(image, true_class, budget=0),
            linear_classifier,
        )
        assert not result.success
        assert result.queries == 0
