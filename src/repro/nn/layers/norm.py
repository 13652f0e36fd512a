"""Batch normalization."""

from __future__ import annotations

import numpy as np

from repro.nn import initializers
from repro.nn.module import Module, Parameter


class BatchNorm2d(Module):
    """Per-channel batch normalization over (N, C, H, W) inputs.

    Running statistics are updated with exponential averaging during
    training and used verbatim in evaluation mode, matching the standard
    semantics.  ``momentum=0.0`` freezes the running statistics (the
    batch still normalizes by its own moments in training mode), which
    is a legitimate configuration for fine-tuning and exactly what the
    inference freeze path relies on.

    Frozen, its plan rule hands the planner eval's float64 scale and
    shift; below float64 the planner folds them into the convolution
    whose output only this layer reads (:mod:`repro.nn.plan`).  Its
    ``forward`` is eval's in every mode.
    """

    _buffer_names = ("running_mean", "running_var")

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        if num_features <= 0:
            raise ValueError("num_features must be positive")
        if not 0.0 <= momentum <= 1.0:
            raise ValueError("momentum must be in [0, 1]")
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.gamma = Parameter(initializers.ones((num_features,)))
        self.beta = Parameter(initializers.zeros((num_features,)))
        self.running_mean = np.zeros(num_features, dtype=np.float64)
        self.running_var = np.ones(num_features, dtype=np.float64)
        self._cache = None

    # -- eval-mode transform -----------------------------------------------

    def _eval_scale_shift(self):
        """Eval normalization as one fused multiply-add, in float64.

        The scale/shift fold is always computed at float64 regardless of
        the parameter dtype: downcasting the *intermediates* (as an
        ``astype(x.dtype)`` before the multiply-add would) makes float32
        eval scores drift from the train-path normalization formula more
        than the multiply-add itself requires.  Callers cast the final
        output, not the fold.
        """
        inv_std = 1.0 / np.sqrt(self.running_var.astype(np.float64) + self.eps)
        scale = self.gamma.data.astype(np.float64) * inv_std
        shift = (
            self.beta.data.astype(np.float64)
            - self.running_mean.astype(np.float64) * scale
        )
        return scale, shift, inv_std

    def _check_input(self, shape) -> None:
        if len(shape) != 4 or shape[1] != self.num_features:
            raise ValueError(
                f"expected (N, {self.num_features}, H, W) input, got {shape}"
            )

    def _lower(self, planner, x):
        self._check_input(x.shape)
        scale, shift, _ = self._eval_scale_shift()
        return planner.affine(self, x, scale, shift)

    # -- compute -----------------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._check_input(x.shape)
        if self.training:
            axes = (0, 2, 3)
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            count = x.shape[0] * x.shape[2] * x.shape[3]
            # unbiased variance for the running estimate, as in torch
            unbiased = var * count / max(count - 1, 1)
            self.running_mean = (
                (1 - self.momentum) * self.running_mean + self.momentum * mean
            )
            self.running_var = (
                (1 - self.momentum) * self.running_var + self.momentum * unbiased
            )
        else:
            # eval fast path: normalization and affine as one fused
            # multiply-add (x_hat is reconstructed lazily if a backward
            # pass is ever requested in eval mode)
            scale, shift, inv_std = self._eval_scale_shift()
            out = x * scale[None, :, None, None]
            out += shift[None, :, None, None]
            if not self.inference:
                self._cache = ("eval", x, inv_std)
            return out if out.dtype == x.dtype else out.astype(x.dtype)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
        out = (
            self.gamma.data[None, :, None, None] * x_hat
            + self.beta.data[None, :, None, None]
        )
        self._cache = ("train", x_hat, inv_std)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self.inference:
            raise RuntimeError(
                "backward is unavailable in inference mode; call unfreeze()"
            )
        mode, cached, inv_std = self._cache
        axes = (0, 2, 3)
        count = grad_output.shape[0] * grad_output.shape[2] * grad_output.shape[3]
        if mode == "eval":
            x_hat = (
                cached - self.running_mean[None, :, None, None]
            ) * inv_std[None, :, None, None]
            self.gamma.grad += (grad_output * x_hat).sum(axis=axes)
            self.beta.grad += grad_output.sum(axis=axes)
            return grad_output * (self.gamma.data * inv_std)[None, :, None, None]
        x_hat = cached
        self.gamma.grad += (grad_output * x_hat).sum(axis=axes)
        self.beta.grad += grad_output.sum(axis=axes)
        grad_xhat = grad_output * self.gamma.data[None, :, None, None]
        sum_g = grad_xhat.sum(axis=axes, keepdims=True)
        sum_gx = (grad_xhat * x_hat).sum(axis=axes, keepdims=True)
        return (
            inv_std[None, :, None, None]
            * (grad_xhat - sum_g / count - x_hat * sum_gx / count)
        )
