"""Tests for the model zoo (training, caching, filtering)."""

import copy
import pickle

import numpy as np
import pytest

from repro.classifier.blackbox import NetworkClassifier
from repro.models.zoo import ModelZoo, ZooConfig


@pytest.fixture
def tiny_config(tmp_path):
    """A config small enough to train inside a unit test."""
    return ZooConfig(
        dataset="cifar",
        image_size=8,
        train_per_class=12,
        test_per_class=6,
        epochs=2,
        batch_size=32,
        cache_dir=str(tmp_path),
    )


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
        """Neither training's backward caches nor a big batch's scratch
        ride along when the classifier ships to a worker process."""
        trained = ModelZoo(tiny_config).get("vgg16bn")
        trained.classifier.batch(np.random.default_rng(0).random((1000, 8, 8, 3)))
        weights = sum(
            param.data.nbytes + param.grad.nbytes
            for param in trained.model.parameters()
        )
        assert len(pickle.dumps(trained.classifier)) < 1.1 * weights