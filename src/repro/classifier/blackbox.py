"""The black-box query boundary.

The paper's threat model gives the attacker nothing but the classifier's
output score vector for submitted images, and success is measured in the
*number of submissions*.  This module makes that boundary explicit:

- :class:`NetworkClassifier` adapts a trained :class:`repro.nn.Module`
  to the ``image (H, W, 3) -> scores (C,)`` interface (converting layout
  and applying softmax so scores are class confidences).
- :class:`CountingClassifier` wraps any classifier callable, counts every
  query, and optionally enforces a hard budget by raising
  :class:`QueryBudgetExceeded`.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.nn.functional import softmax
from repro.nn.module import Module

Classifier = Callable[[np.ndarray], np.ndarray]


def batch_scores(classifier: Classifier, images) -> np.ndarray:
    """Score many images through any classifier, batched when possible.

    Uses the classifier's native ``batch`` method when it has one;
    otherwise falls back to stacking per-image calls.  The fallback
    guarantees *bit-identical* scores to sequential single-image queries,
    which is what the serving determinism tests rely on; a native batch
    path may differ in the last float ulps (different BLAS reduction
    order) while remaining semantically equivalent.

    ``images`` may be a list of (H, W, 3) arrays or an (N, H, W, 3)
    array; an empty input yields a ``(0, 0)``-or-wider empty array
    without querying the model.

    The result always honours the batch contract regardless of how
    sloppy the underlying classifier is: ``float64`` dtype, shape
    ``(len(images), num_classes)`` -- including for single-image
    batches, where a ``(num_classes,)`` return from a native ``batch``
    method or a list-returning ``__call__`` used to leak through and
    poison downstream per-row assembly (``CachedClassifier.batch``).
    """
    if not isinstance(images, np.ndarray):
        images = list(images)
    if len(images) == 0:
        return np.zeros((0, 0), dtype=np.float64)
    batch_method = getattr(classifier, "batch", None)
    if batch_method is not None:
        scores = np.asarray(batch_method(np.asarray(images)), dtype=np.float64)
    else:
        scores = np.stack([
            np.asarray(classifier(image), dtype=np.float64).reshape(-1)
            for image in images
        ])
    if scores.ndim == 1:
        scores = scores.reshape(1, -1)
    if scores.shape[0] != len(images):
        raise ValueError(
            f"batch classifier returned {scores.shape[0]} score rows "
            f"for {len(images)} images"
        )
    return scores


class _Unchanged:
    """Sentinel type for :meth:`CountingClassifier.reset`'s default."""

    def __repr__(self) -> str:
        return "<budget unchanged>"


#: Default for ``CountingClassifier.reset(budget=...)``: keep the current
#: budget.  A dedicated object (not a string or ``None``) so every actual
#: budget value -- including odd user-supplied ones -- stays expressible.
_UNCHANGED = _Unchanged()


def _validated_budget(budget: Optional[int]) -> Optional[int]:
    """``budget`` as a plain non-negative int, or ``None`` for uncapped."""
    if budget is None:
        return None
    if isinstance(budget, bool) or not isinstance(budget, (int, np.integer)):
        raise TypeError(
            f"budget must be an int or None, got {type(budget).__name__}"
        )
    if budget < 0:
        raise ValueError("budget must be non-negative")
    return int(budget)


class QueryBudgetExceeded(Exception):
    """Raised when a query would exceed the configured budget.

    Attributes
    ----------
    budget:
        The budget that was in force when the violation happened.
    """

    def __init__(self, budget: int):
        super().__init__(f"query budget of {budget} exhausted")
        self.budget = budget


class NetworkClassifier:
    """Adapt a trained network to the black-box image interface.

    The wrapped module is switched to evaluation mode once at construction;
    queries never mutate it.  Pass ``dtype=numpy.float32`` to cast the
    model for roughly 2x faster CPU inference (scores then differ from
    float64 in the last bits; returned scores are always float64).

    Pass ``freeze=True`` (or call :meth:`freeze` later) to enable the
    model's inference fast path: backward caches are skipped and each
    planned part of the model runs as one flat step list over a scratch
    pool the model owns (see :meth:`repro.nn.Module.freeze` and
    :mod:`repro.nn.plan`).  At float64 the scores are the unfrozen eval
    path's bit for bit; below float64 the plans also fold each batch
    norm into the convolution whose output only it reads, and the scores
    stay decision-identical and float-tolerance-close.  A frozen model
    serves one forward at a time.

    Pass ``cache`` (a :class:`~repro.runtime.cache.QueryCache`) to answer
    a repeated scalar query from it: an exact LRU keyed by
    :func:`~repro.runtime.cache.image_digest`, holding the bits the
    forward returned.  It sits behind every counting boundary that wraps
    this classifier, so counts never change.  :meth:`batch` neither reads
    nor fills it, because a batch row may differ from the scalar forward
    of the same image in the last bits.  Only the model zoo passes one.
    """

    def __init__(
        self, model: Module, dtype=None, freeze: bool = False, cache=None
    ):
        self.model = model
        self.model.eval()
        self.dtype = dtype
        self.cache = cache
        self._num_classes: Optional[int] = None
        if dtype is not None:
            self.model.astype(dtype)
        if freeze:
            self.model.freeze()

    def freeze(self) -> "NetworkClassifier":
        """Switch the wrapped model onto the inference fast path."""
        self.model.freeze()
        return self

    def unfreeze(self) -> "NetworkClassifier":
        """Return the wrapped model to the plain (bit-exact) eval path."""
        self.model.unfreeze()
        return self

    @property
    def frozen(self) -> bool:
        return self.model.frozen

    def __call__(self, image: np.ndarray) -> np.ndarray:
        if image.ndim != 3 or image.shape[2] != 3:
            raise ValueError(f"expected an (H, W, 3) image, got {image.shape}")
        if self.cache is None:
            return self._forward(image)
        # Imported here: the runtime package imports the attacks, which
        # import this module.
        from repro.runtime.cache import image_digest

        key = image_digest(image)
        scores = self.cache.get(key)
        if scores is None:
            scores = self._forward(image)
            self.cache.put(key, scores)
        return scores

    def _forward(self, image: np.ndarray) -> np.ndarray:
        batch = image.transpose(2, 0, 1)[None, ...]
        if self.dtype is not None:
            batch = batch.astype(self.dtype)
        logits = self.model(np.ascontiguousarray(batch))
        scores = softmax(np.asarray(logits, dtype=np.float64), axis=1)[0]
        self._num_classes = scores.shape[0]
        return scores

    def batch(self, images: np.ndarray) -> np.ndarray:
        """Score a batch of (N, H, W, 3) images in one forward pass.

        Used by training-side evaluation (e.g. filtering misclassified
        test images) and by the serving layer's micro-batching broker.
        Attacks themselves still see only the single-image call; when a
        broker batches on their behalf it counts each image in the batch
        as one submission (see :meth:`CountingClassifier.batch`), so
        query accounting matches the sequential path.

        An empty ``(0, H, W, 3)`` batch returns an empty ``(0, C)`` score
        array without touching the model (whose layers may not tolerate
        zero-length batches).
        """
        images = np.asarray(images)
        if images.ndim != 4 or images.shape[3] != 3:
            raise ValueError(f"expected (N, H, W, 3) images, got {images.shape}")
        if images.shape[0] == 0:
            width = self._num_classes if self._num_classes is not None else 0
            return np.zeros((0, width), dtype=np.float64)
        batch = np.ascontiguousarray(images.transpose(0, 3, 1, 2))
        if self.dtype is not None:
            batch = batch.astype(self.dtype)
        scores = softmax(np.asarray(self.model(batch), dtype=np.float64), axis=1)
        self._num_classes = scores.shape[1]
        return scores


class CountingClassifier:
    """Count (and optionally cap) the queries posed to a classifier.

    Parameters
    ----------
    classifier:
        Any callable mapping an (H, W, 3) image to a score vector.
    budget:
        If given, the ``budget + 1``-th query raises
        :class:`QueryBudgetExceeded` instead of executing.

    The counter can be read at any time via :attr:`count` and reset with
    :meth:`reset`; attacks use it as their sole query-accounting mechanism
    so reported numbers cannot drift from reality.
    """

    def __init__(self, classifier: Classifier, budget: Optional[int] = None):
        self._classifier = classifier
        self.budget = _validated_budget(budget)
        self.count = 0

    def __call__(self, image: np.ndarray) -> np.ndarray:
        if self.budget is not None and self.count >= self.budget:
            raise QueryBudgetExceeded(self.budget)
        self.count += 1
        return self._classifier(image)

    def batch(self, images) -> np.ndarray:
        """Score a batch, counting every image as one submission.

        Accounting matches the sequential path exactly: submitting N
        images costs N queries, and a batch that would cross the budget
        raises :class:`QueryBudgetExceeded` *after* consuming the
        remaining allowance (a sequential loop would have posed exactly
        ``remaining`` queries before tripping).  This is what keeps
        broker-batched runs and per-query runs reporting identical
        counts.
        """
        if not isinstance(images, np.ndarray):
            images = list(images)
        size = len(images)
        if self.budget is not None and self.count + size > self.budget:
            self.count = self.budget
            raise QueryBudgetExceeded(self.budget)
        self.count += size
        return batch_scores(self._classifier, images)

    @property
    def remaining(self) -> Optional[int]:
        """Queries left before the budget trips (``None`` if unbudgeted)."""
        if self.budget is None:
            return None
        return max(self.budget - self.count, 0)

    def reset(self, budget=_UNCHANGED) -> None:
        """Zero the counter; optionally install a new budget.

        Without ``budget`` the current budget is kept (the
        :data:`_UNCHANGED` sentinel, not a magic string, marks that
        case); ``budget=None`` removes the cap.
        """
        self.count = 0
        if budget is not _UNCHANGED:
            self.budget = _validated_budget(budget)

    def classify(self, image: np.ndarray) -> int:
        """Convenience: the argmax class of one (counted) query."""
        return int(np.argmax(self(image)))
