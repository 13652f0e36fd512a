"""Shape-manipulation layers."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module


class Flatten(Module):
    """Collapse all non-batch dimensions: (N, ...) -> (N, prod(...))."""

    def __init__(self):
        super().__init__()
        self._shape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output.reshape(self._shape)


class Concat(Module):
    """Concatenate the outputs of parallel branches along the channel axis.

    Used by inception modules and dense blocks.  ``forward`` takes the input
    once and routes it through every branch; ``backward`` splits the gradient
    and sums the branch input-gradients.
    """

    def __init__(self, branches):
        super().__init__()
        self.branches = list(branches)
        for index, branch in enumerate(self.branches):
            self.register_module(f"branch{index}", branch)
        self._splits = None

    def _lower(self, planner, x):
        return planner.concat(self, [planner.lower(branch, x) for branch in self.branches])

    def forward(self, x: np.ndarray) -> np.ndarray:
        outputs = [branch(x) for branch in self.branches]
        self._splits = np.cumsum([out.shape[1] for out in outputs])[:-1]
        return np.concatenate(outputs, axis=1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grads = np.split(grad_output, self._splits, axis=1)
        total = None
        for branch, grad in zip(self.branches, grads):
            grad_in = branch.backward(np.ascontiguousarray(grad))
            total = grad_in if total is None else total + grad_in
        return total
