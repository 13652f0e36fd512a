"""2-D convolution via im2col."""

from __future__ import annotations

import numpy as np

from repro.nn import initializers
from repro.nn.functional import col2im, im2col, im2col_gather
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
        self._folded_weight = None  # BN folded in at freeze time, else None
        self._folded_bias = None
        self._arena = None  # the frozen model's scratch, else None

    def _freeze_hook(self, arena) -> None:
        self._arena = arena

    def _unfreeze_hook(self) -> None:
        self._folded_weight = None
        self._folded_bias = None
        self._arena = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"expected (N, {self.in_channels}, H, W) input, got {x.shape}"
            )
        if self.inference:
            return self._forward_inference(x)
        cols, out_h, out_w = im2col(x, self.kernel_size, self.stride, self.padding)
        w_mat = self.weight.data.reshape(self.out_channels, -1)
        out = cols @ w_mat.T
        if self.bias is not None:
            out += self.bias.data
        n = x.shape[0]
        out = out.reshape(n, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)
        self._cache = (x.shape, cols)
        return out

    def _forward_inference(self, x: np.ndarray) -> np.ndarray:
        """Forward without backward caches, over the same column matrix
        as the eval path, so the GEMM and its bits are eval's.  A 1x1,
        stride-1, unpadded convolution's matrix is its channels-last
        input (free when the input already is in that memory order);
        any other is gathered into the model's arena and consumed by the
        GEMM before this method returns."""
        n, c, h, w = x.shape
        if self.kernel_size == 1 and self.stride == 1 and self.padding == 0:
            cols = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).reshape(-1, c)
            out_h, out_w = h, w
        else:
            cols, out_h, out_w = im2col_gather(
                x, self.kernel_size, self.stride, self.padding, self._arena
            )
        weight = self._folded_weight if self._folded_weight is not None else (
            self.weight.data
        )
        out = cols @ weight.reshape(self.out_channels, -1).T
        if self._folded_bias is not None:
            out += self._folded_bias
        elif self.bias is not None:
            out += self.bias.data
        return out.reshape(n, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)

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
