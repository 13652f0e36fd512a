"""2-D convolution via im2col."""

from __future__ import annotations

import numpy as np

from repro.nn import initializers
from repro.nn.functional import col2im, im2col
from repro.nn.module import Module, Parameter


class Conv2d(Module):
    """Square-kernel 2-D convolution over (N, C, H, W) inputs.

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts.
    kernel_size:
        Side of the square kernel.
    stride, padding:
        Usual convolution hyper-parameters (symmetric zero padding).
    bias:
        Whether to add a per-channel bias.  Layers followed by batch norm
        conventionally disable it.
    rng:
        Generator for Kaiming initialization; a default generator is used
        when omitted (construction is then non-deterministic).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: np.random.Generator = None,
    ):
        super().__init__()
        if in_channels <= 0 or out_channels <= 0 or kernel_size <= 0:
            raise ValueError("channel counts and kernel size must be positive")
        if stride <= 0 or padding < 0:
            raise ValueError("stride must be positive and padding non-negative")
        rng = rng if rng is not None else np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(
            initializers.kaiming_normal(
                rng, (out_channels, in_channels, kernel_size, kernel_size), fan_in
            )
        )
        self.bias = Parameter(initializers.zeros((out_channels,))) if bias else None
        self._cache = None

    def _check_input(self, shape) -> None:
        if len(shape) != 4 or shape[1] != self.in_channels:
            raise ValueError(
                f"expected (N, {self.in_channels}, H, W) input, got {shape}"
            )

    def _lower(self, planner, x):
        self._check_input(x.shape)
        bias = self.bias.data if self.bias is not None else None
        return planner.conv(
            self, x, self.weight.data, bias, self.kernel_size, self.stride, self.padding
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._check_input(x.shape)
        cols, out_h, out_w = im2col(x, self.kernel_size, self.stride, self.padding)
        out = cols @ self.weight.data.reshape(self.out_channels, -1).T
        if self.bias is not None:
            out += self.bias.data
        n = x.shape[0]
        out = out.reshape(n, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)
        if not self.inference:
            self._cache = (x.shape, cols)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self.inference:
            raise RuntimeError(
                "backward is unavailable in inference mode; call unfreeze()"
            )
        x_shape, cols = self._cache
        n, _, out_h, out_w = grad_output.shape
        grad_mat = grad_output.transpose(0, 2, 3, 1).reshape(
            n * out_h * out_w, self.out_channels
        )
        w_mat = self.weight.data.reshape(self.out_channels, -1)
        self.weight.grad += (grad_mat.T @ cols).reshape(self.weight.data.shape)
        if self.bias is not None:
            self.bias.grad += grad_mat.sum(axis=0)
        grad_cols = grad_mat @ w_mat
        return col2im(grad_cols, x_shape, self.kernel_size, self.stride, self.padding)
