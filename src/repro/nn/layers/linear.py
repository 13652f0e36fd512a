"""Fully connected layer."""

from __future__ import annotations

import numpy as np

from repro.nn import initializers
from repro.nn.module import Module, Parameter


class Linear(Module):
    """Affine map ``y = x W^T + b`` over (N, in_features) inputs."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator = None,
    ):
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("feature counts must be positive")
        rng = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            initializers.kaiming_normal(rng, (out_features, in_features), in_features)
        )
        self.bias = Parameter(initializers.zeros((out_features,))) if bias else None
        self._cache = None

    def _check_input(self, shape) -> None:
        if len(shape) != 2 or shape[1] != self.in_features:
            raise ValueError(
                f"expected (N, {self.in_features}) input, got {shape}"
            )

    def _lower(self, planner, x):
        self._check_input(x.shape)
        bias = self.bias.data if self.bias is not None else None
        return planner.linear(self, x, self.weight.data, bias)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._check_input(x.shape)
        if not self.inference:
            self._cache = x
        out = x @ self.weight.data.T
        if self.bias is not None:
            out += self.bias.data
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self.inference:
            raise RuntimeError(
                "backward is unavailable in inference mode; call unfreeze()"
            )
        x = self._cache
        self.weight.grad += grad_output.T @ x
        if self.bias is not None:
            self.bias.grad += grad_output.sum(axis=0)
        return grad_output @ self.weight.data
