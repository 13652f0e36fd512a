"""Model zoo: train-on-first-use classifiers with on-disk weight caching.

The paper attacks *pretrained* networks.  Offline, we reproduce that by
training each scaled architecture once on the synthetic dataset and
caching the weights (plus accuracy metadata) under a cache directory, so
that every experiment and test after the first run loads instantly and
all runs see byte-identical classifiers.

The cache key encodes every input that affects the trained weights
(dataset, architecture, image size, training-set size, epochs, seed), so
changing any experiment knob retrains rather than silently reusing stale
weights.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.classifier.blackbox import NetworkClassifier
from repro.data.cifar_like import make_cifar_like
from repro.data.dataset import Dataset
from repro.data.imagenet_like import make_imagenet_like
from repro.models.registry import build_model
from repro.nn.module import Module
from repro.nn.serialization import load_state, save_state
from repro.nn.trainer import TrainConfig, Trainer
from repro.runtime.cache import DEFAULT_CACHE_SIZE, QueryCache

_DATASET_FACTORIES = {
    "cifar": (make_cifar_like, 10),
    "imagenet": (make_imagenet_like, 11),
}

# Offsets keeping train/test generator streams disjoint.
_TEST_SEED_OFFSET = 100_000


def default_cache_dir() -> str:
    """The weight cache directory (override with ``REPRO_CACHE_DIR``)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro_oppsla")


@dataclass(frozen=True)
class ZooConfig:
    """Everything that determines a trained classifier's weights.

    The defaults are sized for CPU training in a couple of minutes per
    architecture while leaving the classifiers accurate (>90% on the
    synthetic test sets) and realistically attackable.
    """

    dataset: str = "cifar"
    image_size: int = 16
    train_per_class: int = 200
    test_per_class: int = 100
    epochs: int = 5
    batch_size: int = 64
    lr: float = 2e-3
    label_smoothing: float = 0.0
    ambiguity: float = 1.0
    blend_lo: float = 0.25
    blend_hi: float = 0.55
    seed: int = 0
    cache_dir: str = field(default_factory=default_cache_dir)

    def __post_init__(self):
        if self.dataset not in _DATASET_FACTORIES:
            raise ValueError(
                f"unknown dataset {self.dataset!r}; known: {sorted(_DATASET_FACTORIES)}"
            )

    @property
    def num_classes(self) -> int:
        return _DATASET_FACTORIES[self.dataset][1]

    def cache_key(self, arch: str) -> str:
        return (
            f"{self.dataset}_{arch}_s{self.image_size}"
            f"_n{self.train_per_class}_e{self.epochs}"
            f"_a{self.ambiguity:g}-{self.blend_lo:g}-{self.blend_hi:g}"
            f"_seed{self.seed}"
        )


@dataclass
class TrainedModel:
    """A trained classifier plus its provenance.

    :attr:`classifier` wraps :attr:`model` frozen (see
    :meth:`repro.nn.Module.freeze`): float64 scores bit-identical to the
    eval path, computed by planned step lists over one scratch pool the
    model owns.  Everything that scores through it -- synthesis,
    ``attack_dataset``, the experiments, campaigns, ``repro attack`` --
    runs one forward at a time, which that pool requires.  Only serve
    and cluster threads call classifiers concurrently, and they build
    their own models and call them behind the broker's model lock.

    It also answers exact repeats of a scalar query from a bounded LRU
    of its own (a :class:`~repro.runtime.cache.QueryCache` of
    ``DEFAULT_CACHE_SIZE`` entries), so a synthesis chain reuses the
    scores an earlier chain or attack paid for.  The cache sits behind
    every counting boundary, so no query count changes; ``batch`` skips
    it, and a pickled or deep-copied classifier comes back with it
    empty.  :meth:`frozen_classifier` copies have none.
    """

    arch: str
    model: Module
    classifier: NetworkClassifier
    train_accuracy: float
    test_accuracy: float
    config: ZooConfig

    def frozen_classifier(self, dtype=None) -> NetworkClassifier:
        """A frozen classifier over a private copy of the weights.

        The copy matters for ``dtype``: casting the shared :attr:`model`
        in place (``numpy.float32`` is the fastest CPU serving
        configuration) would move :attr:`classifier` -- and every
        experiment holding it -- off float64.  A float32 copy's plans
        fold its batch norms into their convolutions, so its scores are
        decision-identical to :attr:`classifier`'s; a float64 copy's are
        bit-identical.
        """
        return NetworkClassifier(
            copy.deepcopy(self.model), dtype=dtype, freeze=True
        )


class ModelZoo:
    """Builds, trains, caches and serves the paper's classifiers."""

    def __init__(self, config: ZooConfig = None):
        self.config = config or ZooConfig()
        self._models: Dict[str, TrainedModel] = {}
        self._datasets: Dict[str, Dataset] = {}

    # -- datasets ------------------------------------------------------------

    def dataset(self, split: str) -> Dataset:
        """The train or test split (cached in memory, deterministic)."""
        if split not in ("train", "test"):
            raise ValueError("split must be 'train' or 'test'")
        if split not in self._datasets:
            factory, _ = _DATASET_FACTORIES[self.config.dataset]
            if split == "train":
                count = self.config.train_per_class
                seed = self.config.seed
            else:
                count = self.config.test_per_class
                seed = self.config.seed + _TEST_SEED_OFFSET
            self._datasets[split] = factory(
                num_per_class=count,
                size=self.config.image_size,
                seed=seed,
                ambiguity=self.config.ambiguity,
                blend_range=(self.config.blend_lo, self.config.blend_hi),
            )
        return self._datasets[split]

    # -- models ----------------------------------------------------------------

    def get(self, arch: str, force_retrain: bool = False) -> TrainedModel:
        """Return the trained model for ``arch``, training it if needed."""
        if arch in self._models and not force_retrain:
            return self._models[arch]
        model = build_model(
            arch, num_classes=self.config.num_classes, seed=self.config.seed
        )
        key = self.config.cache_key(arch)
        weights_path = os.path.join(self.config.cache_dir, f"{key}.npz")
        meta_path = os.path.join(self.config.cache_dir, f"{key}.json")
        if not force_retrain and os.path.exists(weights_path) and os.path.exists(
            meta_path
        ):
            load_state(model, weights_path)
            with open(meta_path) as handle:
                meta = json.load(handle)
        else:
            meta = {
                **self._train(model),
                "arch": arch,
                "cache_key": key,
            }
            save_state(model, weights_path)
            with open(meta_path, "w") as handle:
                json.dump(meta, handle, indent=2)
        trained = TrainedModel(
            arch=arch,
            model=model,
            classifier=NetworkClassifier(
                model, freeze=True, cache=QueryCache(DEFAULT_CACHE_SIZE)
            ),
            train_accuracy=meta["train_accuracy"],
            test_accuracy=meta["test_accuracy"],
            config=self.config,
        )
        self._models[arch] = trained
        return trained

    def _train(self, model: Module) -> Dict[str, float]:
        config = self.config
        train_set = self.dataset("train")
        test_set = self.dataset("test")
        trainer = Trainer(
            model,
            TrainConfig(
                epochs=config.epochs,
                batch_size=config.batch_size,
                lr=config.lr,
                label_smoothing=config.label_smoothing,
                seed=config.seed,
            ),
        )
        trainer.fit(train_set.to_nchw(), train_set.labels)
        return {
            "train_accuracy": trainer.evaluate(train_set.to_nchw(), train_set.labels),
            "test_accuracy": trainer.evaluate(test_set.to_nchw(), test_set.labels),
        }

    def correctly_classified(
        self, arch: str, split: str = "test", limit: Optional[int] = None,
        label: Optional[int] = None,
    ) -> Dataset:
        """Images of ``split`` that ``arch`` classifies correctly.

        The paper discards misclassified images before attacking; this is
        the helper every experiment uses to do the same.
        """
        trained = self.get(arch)
        dataset = self.dataset(split)
        if label is not None:
            dataset = dataset.of_class(label)
        scores = trained.classifier.batch(dataset.images)
        correct = np.flatnonzero(scores.argmax(axis=1) == dataset.labels)
        if limit is not None:
            correct = correct[:limit]
        return dataset.subset(correct)
