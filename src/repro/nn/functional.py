"""Tensor operations shared by layers and losses.

Convolutions are implemented with im2col / col2im so that the heavy lifting
is a single matrix multiply, which is the only way to get acceptable CPU
throughput out of numpy.  A frozen model's plan (:mod:`repro.nn.plan`)
builds the same column matrix by one gather over :func:`gather_index`.
"""

from __future__ import annotations

import functools
from typing import Tuple

import numpy as np


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution / pooling window."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive output size {out} for input {size}, "
            f"kernel {kernel}, stride {stride}, padding {padding}"
        )
    return out


def im2col(
    x: np.ndarray, kernel: int, stride: int, padding: int
) -> Tuple[np.ndarray, int, int]:
    """Unfold ``x`` of shape (N, C, H, W) into columns.

    Returns ``(cols, out_h, out_w)`` where ``cols`` has shape
    ``(N * out_h * out_w, C * kernel * kernel)``, each row one window in
    ``(c, ki, kj)`` order.  This strided unfold is the training and eval
    path; a frozen model's plan gathers the same matrix over
    :func:`gather_index`.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    if padding > 0:
        # manual zero-fill: np.pad is several times slower for this case
        padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
        padded[:, :, padding : padding + h, padding : padding + w] = x
        x = padded
    strides = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kernel, kernel),
        strides=(
            strides[0],
            strides[1],
            strides[2] * stride,
            strides[3] * stride,
            strides[2],
            strides[3],
        ),
        writeable=False,
    )
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(
        n * out_h * out_w, c * kernel * kernel
    )
    return np.ascontiguousarray(cols), out_h, out_w


@functools.lru_cache(maxsize=256)
def gather_index(
    channels: int,
    height: int,
    width: int,
    kernel: int,
    stride: int,
    padding: int,
    border: int,
) -> np.ndarray:
    """Per-image offsets of :func:`im2col`'s column matrix in a canvas.

    A canvas is one image stored channels-last, ``(height + 2 * border,
    width + 2 * border, channels)``, with a zero border at least as wide
    as ``padding``.  Entry
    ``[oy * out_w + ox, (c * kernel + ki) * kernel + kj]`` is the flat
    offset of tap ``(c, ki, kj)`` of window ``(oy, ox)``, so one
    ``np.take`` of a canvas over this table is :func:`im2col`'s matrix,
    the same values in the same order.  A pure function of the geometry,
    so it is built once per geometry and shared read-only.
    """
    if border < padding:
        raise ValueError(f"border {border} is narrower than padding {padding}")
    out_h = conv_output_size(height, kernel, stride, padding)
    out_w = conv_output_size(width, kernel, stride, padding)
    shift = border - padding
    row = np.arange(out_h)[:, None, None, None, None] * stride + shift
    col = np.arange(out_w)[None, :, None, None, None] * stride + shift
    channel = np.arange(channels)[None, None, :, None, None]
    ki = np.arange(kernel)[None, None, None, :, None]
    kj = np.arange(kernel)[None, None, None, None, :]
    offsets = ((row + ki) * (width + 2 * border) + col + kj) * channels + channel
    index = offsets.reshape(out_h * out_w, channels * kernel * kernel).astype(np.intp)
    index.flags.writeable = False
    return index


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold columns back into an image, summing overlapping contributions.

    The adjoint of :func:`im2col`; used in convolution backward passes.
    """
    n, c, h, w = x_shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    cols6 = cols.reshape(n, out_h, out_w, c, kernel, kernel).transpose(
        0, 3, 1, 2, 4, 5
    )
    for ki in range(kernel):
        i_end = ki + stride * out_h
        for kj in range(kernel):
            j_end = kj + stride * out_w
            padded[:, :, ki:i_end:stride, kj:j_end:stride] += cols6[:, :, :, :, ki, kj]
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("label out of range")
    out = np.zeros((labels.shape[0], num_classes), dtype=np.float64)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out
