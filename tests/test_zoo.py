"""Tests for the model zoo (training, caching, filtering)."""

import copy
import pickle

import numpy as np
import pytest

from repro.attacks.fixed_sketch import FixedSketchAttack
from repro.attacks.sparse_rs import SparseRS, SparseRSConfig
from repro.classifier.blackbox import CountingClassifier, NetworkClassifier
from repro.core.synthesis.oppsla import Oppsla, OppslaConfig
from repro.eval.runner import attack_dataset
from repro.models.zoo import ModelZoo, ZooConfig
from repro.runtime.cache import DEFAULT_CACHE_SIZE


def _tiny_config(cache_dir) -> ZooConfig:
    """A config small enough to train inside a unit test."""
    return ZooConfig(
        dataset="cifar",
        image_size=8,
        train_per_class=12,
        test_per_class=6,
        epochs=2,
        batch_size=32,
        cache_dir=str(cache_dir),
    )


@pytest.fixture
def tiny_config(tmp_path):
    return _tiny_config(tmp_path)


@pytest.fixture(scope="module")
def trained_config(tmp_path_factory):
    """A tiny config whose vgg16bn is trained once for this module: each
    ``ModelZoo(trained_config).get`` loads it into a fresh classifier."""
    config = _tiny_config(tmp_path_factory.mktemp("zoo"))
    ModelZoo(config).get("vgg16bn")
    return config


class TestZooDatasets:
    def test_splits_are_disjoint_and_deterministic(self, tiny_config):
        zoo = ModelZoo(tiny_config)
        train = zoo.dataset("train")
        test = zoo.dataset("test")
        assert len(train) == 120
        assert len(test) == 60
        assert not np.array_equal(train.images[:6], test.images[:6])
        again = ModelZoo(tiny_config)
        assert np.array_equal(again.dataset("train").images, train.images)

    def test_invalid_split(self, tiny_config):
        with pytest.raises(ValueError):
            ModelZoo(tiny_config).dataset("validation")

    def test_imagenet_variant(self, tmp_path):
        config = ZooConfig(
            dataset="imagenet",
            image_size=8,
            train_per_class=4,
            test_per_class=2,
            epochs=1,
            cache_dir=str(tmp_path),
        )
        zoo = ModelZoo(config)
        assert zoo.dataset("train").num_classes == 11
        assert config.num_classes == 11

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ValueError):
            ZooConfig(dataset="mnist")


class TestZooTrainingAndCaching:
    def test_train_and_cache_round_trip(self, tiny_config):
        zoo = ModelZoo(tiny_config)
        trained = zoo.get("vgg16bn")
        assert 0.0 <= trained.test_accuracy <= 1.0
        assert trained.train_accuracy > 0.2  # learned something

        # a fresh zoo loads from cache and serves identical weights
        reloaded = ModelZoo(tiny_config).get("vgg16bn")
        image = zoo.dataset("test").images[0]
        assert np.allclose(
            trained.classifier(image), reloaded.classifier(image)
        )
        assert reloaded.test_accuracy == trained.test_accuracy

    def test_in_memory_caching(self, tiny_config):
        zoo = ModelZoo(tiny_config)
        first = zoo.get("vgg16bn")
        assert zoo.get("vgg16bn") is first

    def test_force_retrain(self, tiny_config):
        zoo = ModelZoo(tiny_config)
        first = zoo.get("vgg16bn")
        again = zoo.get("vgg16bn", force_retrain=True)
        image = zoo.dataset("test").images[0]
        # deterministic training: same weights even when retrained
        assert np.allclose(first.classifier(image), again.classifier(image))

    def test_cache_key_distinguishes_configs(self, tiny_config):
        other = ZooConfig(
            dataset=tiny_config.dataset,
            image_size=tiny_config.image_size,
            train_per_class=tiny_config.train_per_class,
            epochs=3,  # differs
            cache_dir=tiny_config.cache_dir,
        )
        assert tiny_config.cache_key("vgg16bn") != other.cache_key("vgg16bn")
        assert tiny_config.cache_key("vgg16bn") != tiny_config.cache_key("resnet18")

    def test_correctly_classified_filtering(self, tiny_config):
        zoo = ModelZoo(tiny_config)
        trained = zoo.get("vgg16bn")
        correct = zoo.correctly_classified("vgg16bn", split="test")
        scores = trained.classifier.batch(correct.images)
        assert (scores.argmax(axis=1) == correct.labels).all()

    def test_correctly_classified_with_label_and_limit(self, tiny_config):
        zoo = ModelZoo(tiny_config)
        zoo.get("vgg16bn")
        subset = zoo.correctly_classified("vgg16bn", label=3, limit=2)
        assert len(subset) <= 2
        assert (subset.labels == 3).all()

    def test_frozen_classifier_leaves_shared_model_untouched(self, tiny_config):
        """The zoo hands out its classifier frozen, with the eval path's
        bits; ``frozen_classifier(np.float32)`` casts and folds a *copy*,
        so the shared model stays float64."""
        zoo = ModelZoo(tiny_config)
        trained = zoo.get("vgg16bn")
        images = zoo.dataset("test").images[:6]
        assert trained.classifier.frozen
        plain = NetworkClassifier(copy.deepcopy(trained.model).unfreeze())
        reference = plain.batch(images)
        assert np.array_equal(trained.classifier.batch(images), reference)
        for image in images:
            assert np.array_equal(trained.classifier(image), plain(image))
        fast = trained.frozen_classifier(np.float32)
        assert fast.frozen
        assert all(
            param.data.dtype == np.float64 for param in trained.model.parameters()
        )
        assert np.array_equal(
            fast.batch(images).argmax(axis=1), reference.argmax(axis=1)
        )
        # the shared classifier still reproduces its scores bit for bit --
        # proof the deep copy really isolated the cast
        assert np.array_equal(trained.classifier.batch(images), reference)

    def test_frozen_classifier_pickles_near_its_weights(self, tiny_config):
        """Neither training's backward caches, a big batch's scratch nor
        the scalar cache's entries (or its lock) ride along when the
        classifier ships to a worker process."""
        trained = ModelZoo(tiny_config).get("vgg16bn")
        images = np.random.default_rng(0).random((1000, 8, 8, 3))
        trained.classifier.batch(images)
        for image in images[:300]:
            trained.classifier(image)
        assert len(trained.classifier.cache) == 300
        weights = sum(
            param.data.nbytes + param.grad.nbytes
            for param in trained.model.parameters()
        )
        shipped = pickle.dumps(trained.classifier)
        assert len(shipped) < 1.1 * weights
        for clone in (pickle.loads(shipped), copy.deepcopy(trained.classifier)):
            assert len(clone.cache) == 0
            assert clone.cache.maxsize == DEFAULT_CACHE_SIZE
            assert clone(images[0]).tobytes() == trained.classifier(images[0]).tobytes()


class TestZooScoreCache:
    """The zoo classifier answers exact repeats of a scalar query from
    its own bounded cache, behind every counting boundary."""

    def test_zoo_classifier_alone_has_a_bounded_cache(self, trained_config):
        trained = ModelZoo(trained_config).get("vgg16bn")
        assert trained.classifier.cache.maxsize == DEFAULT_CACHE_SIZE
        assert trained.frozen_classifier().cache is None
        assert NetworkClassifier(trained.model).cache is None

    def test_repeated_query_returns_the_first_answers_bytes(self, trained_config):
        zoo = ModelZoo(trained_config)
        classifier = zoo.get("vgg16bn").classifier
        image = zoo.dataset("test").images[0]
        first = classifier(image)
        # the same image in another memory layout is the same query
        again = classifier(np.asfortranarray(image))
        assert classifier.cache.hits == 1 and classifier.cache.misses == 1
        assert again.dtype == first.dtype and again.shape == first.shape
        assert again.tobytes() == first.tobytes()
        uncached = zoo.get("vgg16bn").frozen_classifier()
        assert uncached(image).tobytes() == first.tobytes()

    def test_mutating_an_answer_does_not_change_the_next(self, trained_config):
        zoo = ModelZoo(trained_config)
        classifier = zoo.get("vgg16bn").classifier
        image = zoo.dataset("test").images[1]
        first = classifier(image)
        expected = first.copy()
        first[:] = -1.0  # the forward's own array, stored as a copy
        hit = classifier(image)
        assert hit.tobytes() == expected.tobytes()
        hit[:] = 7.0  # a hit hands out a copy too
        assert classifier(image).tobytes() == expected.tobytes()

    def test_batch_neither_reads_nor_fills_the_cache(self, trained_config):
        zoo = ModelZoo(trained_config)
        classifier = zoo.get("vgg16bn").classifier
        images = zoo.dataset("test").images[:6]
        for image in images[:3]:
            classifier(image)
        before = classifier.cache.stats()
        classifier.batch(images)
        after = classifier.cache.stats()
        for key in ("hits", "misses", "size"):
            assert after[key] == before[key], key

    def test_counts_match_a_cache_less_classifier(self, trained_config):
        """A ``CountingClassifier`` over the zoo classifier counts every
        submission, hits included, and ``attack_dataset`` reports what a
        cache-less classifier with the same bits reports, also on a
        second run that the cache answers."""
        zoo = ModelZoo(trained_config)
        trained = zoo.get("vgg16bn")
        images = zoo.dataset("test").images[:2]
        counting = CountingClassifier(trained.classifier)
        for index in (0, 1, 0, 0, 1):
            counting(images[index])
        assert counting.count == 5
        assert trained.classifier.cache.hits == 3

        pairs = zoo.correctly_classified("vgg16bn", split="test", limit=3).pairs()
        assert pairs
        uncached = trained.frozen_classifier()
        for attack in (FixedSketchAttack(), SparseRS(SparseRSConfig(seed=3))):
            reference = attack_dataset(attack, uncached, pairs, budget=48)
            for _ in range(2):
                hits = trained.classifier.cache.hits
                summary = attack_dataset(attack, trained.classifier, pairs, budget=48)
                assert summary.to_dict(include_timing=False) == reference.to_dict(
                    include_timing=False
                )
                for result, expected in zip(summary.results, reference.results):
                    assert result.queries == expected.queries
                    assert result.success == expected.success
                    assert result.location == expected.location
                    assert result.adversarial_class == expected.adversarial_class
            assert trained.classifier.cache.hits > hits

    def test_repeated_synthesis_runs_no_forwards(self, trained_config):
        """``forwards`` counts forwards where they run: a second identical
        chain on one zoo classifier finds every score in its cache."""
        zoo = ModelZoo(trained_config)
        trained = zoo.get("vgg16bn")
        pairs = zoo.correctly_classified("vgg16bn", split="train", limit=2).pairs()
        config = OppslaConfig(max_iterations=4, per_image_budget=40, seed=3)
        reference = Oppsla(config).synthesize(trained.frozen_classifier(), pairs)
        first = Oppsla(config).synthesize(trained.classifier, pairs)
        second = Oppsla(config).synthesize(trained.classifier, pairs)
        for result in (first, second):
            assert result.program == reference.program
            assert result.total_queries == reference.total_queries
        assert first.forwards == reference.forwards > 0
        assert first.cache_hit_rate == reference.cache_hit_rate
        assert second.forwards == 0
        assert second.cache_hit_rate == 1.0