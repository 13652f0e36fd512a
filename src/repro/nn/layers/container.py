"""Composite layers: sequences and residual connections."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module


class Sequential(Module):
    """Apply child modules in order; backward runs them in reverse."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)
        for index, layer in enumerate(self.layers):
            self.register_module(f"layer{index}", layer)

    def append(self, layer: Module) -> "Sequential":
        self.register_module(f"layer{len(self.layers)}", layer)
        self.layers.append(layer)
        return self

    def _lower(self, planner, x):
        for layer in self.layers:
            x = planner.lower(layer, x)
        return x

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer(x)
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_output = layer.backward(grad_output)
        return grad_output

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]


class Residual(Module):
    """``y = body(x) + shortcut(x)`` with an identity default shortcut.

    The shortcut must produce the same shape as the body (use a 1x1
    strided convolution when the body changes shape).
    """

    def __init__(self, body: Module, shortcut: Module = None):
        super().__init__()
        self.body = body
        self.shortcut = shortcut

    def _lower(self, planner, x):
        out = planner.lower(self.body, x)
        skip = planner.lower(self.shortcut, x) if self.shortcut is not None else x
        self._check_shapes(out.shape, skip.shape)
        return planner.add(self, out, skip)

    @staticmethod
    def _check_shapes(out, skip) -> None:
        if out != skip:
            raise ValueError(f"residual shape mismatch: body {out} vs skip {skip}")

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = self.body(x)
        skip = self.shortcut(x) if self.shortcut is not None else x
        self._check_shapes(out.shape, skip.shape)
        return out + skip

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_body = self.body.backward(grad_output)
        if self.shortcut is not None:
            grad_skip = self.shortcut.backward(grad_output)
        else:
            grad_skip = grad_output
        return grad_body + grad_skip
