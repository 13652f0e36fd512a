"""Spatial pooling layers."""

from __future__ import annotations

import numpy as np

from repro.nn.functional import col2im, im2col
from repro.nn.module import Module


class _PoolBase(Module):
    """Shared machinery for the square-window poolers.

    Training and eval unfold windows with im2col so backward can scatter
    through the cached column layout.
    """

    def __init__(self, kernel_size: int, stride: int = None, padding: int = 0):
        super().__init__()
        if kernel_size <= 0:
            raise ValueError("kernel_size must be positive")
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self.padding = padding
        self._cache = None

    def _unfold(self, x: np.ndarray):
        n, c, h, w = x.shape
        # treat channels as batch so each channel pools independently
        reshaped = x.reshape(n * c, 1, h, w)
        return im2col(reshaped, self.kernel_size, self.stride, self.padding)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class MaxPool2d(_PoolBase):
    """Max pooling with a square window.

    Frozen, its plan never builds the column matrix: it takes the
    maximum over the ``kernel**2`` shifted strided views of the
    zero-padded input, which is several times faster on the stride-1
    pools inside inception blocks.  A maximum is exact in any order, so
    the result is eval's bit for bit.
    """

    def _lower(self, planner, x):
        return planner.maxpool(self, x, self.kernel_size, self.stride, self.padding)

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        cols, out_h, out_w = self._unfold(x)
        argmax = cols.argmax(axis=1)
        out = cols[np.arange(cols.shape[0]), argmax]
        if not self.inference:
            self._cache = (x.shape, cols.shape, argmax, out_h, out_w)
        return out.reshape(n * c, out_h, out_w).reshape(n, c, out_h, out_w)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        x_shape, cols_shape, argmax, out_h, out_w = self._cache
        n, c, h, w = x_shape
        grad_cols = np.zeros(cols_shape, dtype=grad_output.dtype)
        grad_flat = grad_output.reshape(-1)
        grad_cols[np.arange(cols_shape[0]), argmax] = grad_flat
        grad_x = col2im(
            grad_cols, (n * c, 1, h, w), self.kernel_size, self.stride, self.padding
        )
        return grad_x.reshape(n, c, h, w)


class AvgPool2d(_PoolBase):
    """Average pooling with a square window.

    Frozen, its plan takes eval's mean over the same windows, one row of
    ``kernel**2`` values each (gathered channels-last): a sum over the
    shifted slices would add a 3x3 window in another order than numpy's
    pairwise row sum and differ from eval in the last bit.
    """

    def _lower(self, planner, x):
        return planner.avgpool(self, x, self.kernel_size, self.stride, self.padding)

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        cols, out_h, out_w = self._unfold(x)
        out = cols.mean(axis=1)
        if not self.inference:
            self._cache = (x.shape, cols.shape)
        return out.reshape(n, c, out_h, out_w)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        x_shape, cols_shape = self._cache
        n, c, h, w = x_shape
        window = self.kernel_size * self.kernel_size
        grad_cols = np.repeat(
            grad_output.reshape(-1, 1) / window, window, axis=1
        ).reshape(cols_shape)
        grad_x = col2im(
            grad_cols, (n * c, 1, h, w), self.kernel_size, self.stride, self.padding
        )
        return grad_x.reshape(n, c, h, w)


class GlobalAvgPool2d(Module):
    """Average over the full spatial extent, producing (N, C)."""

    def __init__(self):
        super().__init__()
        self._cache = None

    def _lower(self, planner, x):
        return planner.global_avgpool(self, x)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.inference:
            self._cache = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        n, c, h, w = self._cache
        scale = 1.0 / (h * w)
        return np.broadcast_to(
            grad_output[:, :, None, None] * scale, (n, c, h, w)
        ).copy()
