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
from repro.core import stepping
from repro.core.pairs import pair_at, pair_count, perturb
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


def _keyed_query_images():
    """(name, image) for images 1x1 to 6x6: float64, float32 and a
    non-contiguous float64 view."""
    for d1 in range(1, 7):
        for d2 in range(1, 7):
            rng = np.random.default_rng(d1 * 7 + d2)
            image = rng.random((d1, d2, 3))
            yield f"{d1}x{d2} float64", image
            yield f"{d1}x{d2} float32", image.astype(np.float32)
            view = rng.random((d1, 2 * d2, 3))[:, ::2]
            assert view.shape == image.shape and not view.flags.owndata
            yield f"{d1}x{d2} view", view


class TestKeyedQuery:
    """A keyed query carries ``(clean image, pair index)`` and builds its
    image on first read."""

    def test_image_is_the_pair_applied_for_every_pair(self):
        for name, image in _keyed_query_images():
            shape = image.shape[:2]
            clean = image.tobytes()
            for key in range(pair_count(shape)):
                query = Query.keyed(image, key)
                assert query.counted and query.key == key and query.clean is image
                built = query.image
                assert built.dtype == image.dtype, name
                assert built.tobytes() == perturb(image, key).tobytes(), (name, key)
                assert built.tobytes() == pair_at(key, shape).apply(image).tobytes(), (
                    name, key,
                )
                assert query.image is built, (name, key)
            assert image.tobytes() == clean, name

    def test_an_image_query_is_not_keyed(self):
        image = np.zeros((2, 2, 3))
        query = Query(image, counted=False)
        assert query.image is image and query.key is None and not query.counted

    def test_answer_function_sees_every_query_and_builds_none(
        self, linear_classifier, image, monkeypatch
    ):
        """``drive_steps``'s ``answer`` answers every query; the observer
        still sees every counted query, and an answer that never reads a
        keyed query's image leaves only the result's image built."""
        true_class = int(np.argmax(linear_classifier(image)))
        reference = FixedSketchAttack().attack(
            linear_classifier, image, true_class, budget=80
        )
        builds = []

        def counting_perturb(clean, key):
            builds.append(key)
            return perturb(clean, key)

        monkeypatch.setattr(stepping, "perturb", counting_perturb)
        answered, observed = [], []

        def answer(query):
            answered.append(query)
            if query.key is None:
                return linear_classifier(query.image)
            return linear_classifier(perturb(query.clean, query.key))

        result = drive_steps(
            FixedSketchAttack().steps(image, true_class, budget=80),
            linear_classifier,
            observer=lambda query, scores: observed.append(query),
            answer=answer,
        )
        assert (result.success, result.queries, result.location) == (
            reference.success, reference.queries, reference.location,
        )
        assert [id(q) for q in observed] == [id(q) for q in answered]
        counted = [q for q in observed if q.counted]
        assert len(counted) == result.queries
        assert all(q.key is not None for q in counted)
        assert builds == ([counted[-1].key] if result.success else [])


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
