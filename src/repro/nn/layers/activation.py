"""Elementwise activation layers."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module


class ReLU(Module):
    """Rectified linear unit."""

    _backward_cache = ("_mask",)

    def __init__(self):
        super().__init__()
        self._mask = None

    def _lower(self, planner, x):
        return planner.relu(self, x)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.inference:
            return np.maximum(x, 0.0)  # single pass, no backward mask
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return np.where(self._mask, grad_output, 0.0)


class LeakyReLU(Module):
    """Leaky rectified linear unit with negative slope ``alpha``."""

    _backward_cache = ("_mask",)

    def __init__(self, alpha: float = 0.01):
        super().__init__()
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.alpha = alpha
        self._mask = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.inference:
            return np.where(x > 0, x, self.alpha * x)
        self._mask = x > 0
        return np.where(self._mask, x, self.alpha * x)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return np.where(self._mask, grad_output, self.alpha * grad_output)


class Sigmoid(Module):
    """Logistic sigmoid."""

    def __init__(self):
        super().__init__()
        self._out = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.empty_like(x)
        positive = x >= 0
        out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
        ex = np.exp(x[~positive])
        out[~positive] = ex / (1.0 + ex)
        self._out = out
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output * self._out * (1.0 - self._out)


class Tanh(Module):
    """Hyperbolic tangent."""

    def __init__(self):
        super().__init__()
        self._out = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._out = np.tanh(x)
        return self._out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output * (1.0 - self._out**2)
