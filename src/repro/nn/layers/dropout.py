"""Dropout regularization."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module


class Dropout(Module):
    """Inverted dropout: active in training, the identity in eval mode.

    Each unit is zeroed with probability ``p`` and survivors are scaled
    by ``1 / (1 - p)`` so expected activations match eval behaviour.  The
    generator is owned by the layer (seeded at construction) so training
    stays deterministic.
    """

    _backward_cache = ("_mask",)

    def __init__(self, p: float = 0.5, seed: int = 0):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self._rng = np.random.default_rng(seed)
        self._mask = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.inference:
            return x  # identity; leave the RNG and mask state untouched
        if not self.training or self.p == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.p
        self._mask = (self._rng.uniform(size=x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_output
        return grad_output * self._mask
