"""Batch normalization."""

from __future__ import annotations

import numpy as np

from repro.nn import initializers
from repro.nn.module import Module, Parameter


def frozen_weights(layer):
    """The ``(weight, bias)`` ``layer`` (a conv or linear layer) computes
    with: those of a batch norm folded into it while frozen, else its
    own (``bias`` is ``None`` when it has none)."""
    if layer._folded_weight is not None:
        return layer._folded_weight, layer._folded_bias
    return layer.weight.data, layer.bias.data if layer.bias is not None else None


class BatchNorm2d(Module):
    """Per-channel batch normalization over (N, C, H, W) inputs.

    Running statistics are updated with exponential averaging during
    training and used verbatim in evaluation mode, matching the standard
    semantics.  ``momentum=0.0`` freezes the running statistics (the
    batch still normalizes by its own moments in training mode), which
    is a legitimate configuration for fine-tuning and exactly what the
    inference freeze path relies on.
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
        self._folded = False
        self._scale = None
        self._shift = None

    # -- eval-mode fold ----------------------------------------------------

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

    def fold_into(self, preceding) -> bool:
        """Fold this layer's eval transform into a preceding affine layer.

        ``preceding`` must expose a ``weight`` :class:`Parameter` whose
        leading axis is the output-channel axis this layer normalizes
        (a :class:`~repro.nn.layers.conv.Conv2d` or
        :class:`~repro.nn.layers.linear.Linear`), plus an optional
        ``bias``.  The fold is computed in float64 from the *current*
        parameters and stored in side buffers (``_folded_weight`` /
        ``_folded_bias``) that the preceding layer's plan rule and
        ``forward`` pick up (:func:`frozen_weights`) -- trainable
        parameters are never touched, so unfreezing restores exact
        training behaviour.  Afterwards this layer passes frozen inputs
        through unchanged.

        Returns ``False`` (and folds nothing) when ``preceding`` has no
        compatible weight.
        """
        weight = getattr(preceding, "weight", None)
        if not isinstance(weight, Parameter) or weight.data.ndim < 2:
            return False
        if weight.data.shape[0] != self.num_features:
            return False
        scale, shift, _ = self._eval_scale_shift()
        folded = weight.data.astype(np.float64) * scale.reshape(
            (-1,) + (1,) * (weight.data.ndim - 1)
        )
        bias = getattr(preceding, "bias", None)
        if isinstance(bias, Parameter):
            folded_bias = shift + scale * bias.data.astype(np.float64)
        else:
            folded_bias = shift
        dtype = weight.data.dtype
        preceding._folded_weight = folded.astype(dtype)
        preceding._folded_bias = folded_bias.astype(dtype)
        self._folded = True
        return True

    def _freeze_hook(self) -> None:
        # precompute eval's fused transform once (the same float64 values
        # eval derives per call); if a container folds this layer into
        # its predecessor these go unused (the plan skips this layer)
        self._scale, self._shift, _ = self._eval_scale_shift()

    def _unfreeze_hook(self) -> None:
        self._folded = False
        self._scale = None
        self._shift = None

    def _check_input(self, shape) -> None:
        if len(shape) != 4 or shape[1] != self.num_features:
            raise ValueError(
                f"expected (N, {self.num_features}, H, W) input, got {shape}"
            )

    def _lower(self, planner, x):
        self._check_input(x.shape)
        if self._folded:
            return x  # absorbed by the preceding conv/linear weights
        return planner.affine(self, x, self._scale, self._shift)

    # -- compute -----------------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._check_input(x.shape)
        if self._folded:
            return x  # absorbed by the preceding conv/linear weights
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
