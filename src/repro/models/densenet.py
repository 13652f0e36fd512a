"""A DenseNet-style architecture at reduced scale.

Keeps the family's defining dense connectivity: each layer in a dense
block receives the concatenation of all earlier feature maps, and blocks
are separated by 1x1-conv + average-pool transitions.
"""

from __future__ import annotations

import numpy as np

from repro.models.vgg import conv_bn_relu
from repro.nn.layers.activation import ReLU
from repro.nn.layers.container import Sequential
from repro.nn.layers.conv import Conv2d
from repro.nn.layers.linear import Linear
from repro.nn.layers.norm import BatchNorm2d
from repro.nn.layers.pool import AvgPool2d, GlobalAvgPool2d
from repro.nn.module import Module


class DenseLayer(Module):
    """BN-ReLU-3x3conv producing ``growth`` channels, concatenated to input."""

    def __init__(self, in_channels: int, growth: int, rng: np.random.Generator):
        super().__init__()
        self.body = Sequential(
            BatchNorm2d(in_channels),
            ReLU(),
            Conv2d(in_channels, growth, 3, padding=1, bias=False, rng=rng),
        )
        self._in_channels = in_channels

    def _lower(self, planner, x):
        return planner.concat(self, [x, planner.lower(self.body, x)])

    def forward(self, x: np.ndarray) -> np.ndarray:
        new = self.body(x)
        return np.concatenate([x, new], axis=1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_x = grad_output[:, : self._in_channels]
        grad_new = np.ascontiguousarray(grad_output[:, self._in_channels :])
        return grad_x + self.body.backward(grad_new)


class DenseBlock(Sequential):
    """``num_layers`` dense layers; output width grows by ``growth`` each."""

    def __init__(
        self, in_channels: int, num_layers: int, growth: int, rng: np.random.Generator
    ):
        layers = []
        channels = in_channels
        for _ in range(num_layers):
            layers.append(DenseLayer(channels, growth, rng))
            channels += growth
        super().__init__(*layers)
        self.out_channels = channels


def transition(
    in_channels: int, out_channels: int, rng: np.random.Generator
) -> Sequential:
    """DenseNet transition: BN-ReLU-1x1conv then 2x2 average pool."""
    return Sequential(
        BatchNorm2d(in_channels),
        ReLU(),
        Conv2d(in_channels, out_channels, 1, bias=False, rng=rng),
        AvgPool2d(2),
    )


class MiniDenseNet(Module):
    """DenseNet121-style network: stem, dense blocks with transitions, GAP."""

    def __init__(
        self,
        num_classes: int = 10,
        stem_channels: int = 16,
        block_layers=(3, 3, 3),
        growth: int = 8,
        seed: int = 0,
    ):
        super().__init__()
        rng = np.random.default_rng(seed)
        body = Sequential(conv_bn_relu(3, stem_channels, rng))
        channels = stem_channels
        for index, num_layers in enumerate(block_layers):
            block = DenseBlock(channels, num_layers, growth, rng)
            body.append(block)
            channels = block.out_channels
            if index < len(block_layers) - 1:
                out = max(channels // 2, 8)
                body.append(transition(channels, out, rng))
                channels = out
        body.append(BatchNorm2d(channels))
        body.append(ReLU())
        body.append(GlobalAvgPool2d())
        self.features = body
        self.head = Linear(channels, num_classes, rng=rng)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.head(self.features(x))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return self.features.backward(self.head.backward(grad_output))
