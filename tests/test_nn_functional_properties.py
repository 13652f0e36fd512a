"""Property-based tests for the im2col/col2im core and the frozen plan.

The correctness of every convolution gradient in the framework reduces to
one algebraic fact: ``col2im`` is the adjoint of ``im2col``,
``<im2col(x), y> = <x, col2im(y)>`` for all x, y.  Hypothesis checks it
across shapes, strides and paddings; checks that a frozen plan's
gathered column build (:func:`gather_index`) is the strided unfold,
entry for entry; and checks that a frozen float64 plan of random layer
stacks computes the eval path's bits, scalar and batched.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.nn import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
    ReLU,
    Residual,
    Sequential,
)
from repro.nn.functional import (
    col2im,
    conv_output_size,
    gather_index,
    im2col,
)
from repro.nn.layers.shape import Concat


@st.composite
def conv_setups(draw):
    kernel = draw(st.integers(1, 3))
    stride = draw(st.integers(1, 2))
    padding = draw(st.integers(0, 2))
    # input must be large enough for one output position
    min_size = max(kernel - 2 * padding, 1)
    h = draw(st.integers(min_size, min_size + 4))
    w = draw(st.integers(min_size, min_size + 4))
    n = draw(st.integers(1, 2))
    c = draw(st.integers(1, 3))
    return n, c, h, w, kernel, stride, padding


class TestConvOutputSize:
    def test_known_values(self):
        assert conv_output_size(32, 3, 1, 1) == 32
        assert conv_output_size(32, 2, 2, 0) == 16
        assert conv_output_size(5, 3, 2, 0) == 2

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            conv_output_size(2, 5, 1, 0)


class TestIm2Col:
    def test_shape(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 6, 6))
        cols, out_h, out_w = im2col(x, kernel=3, stride=1, padding=1)
        assert (out_h, out_w) == (6, 6)
        assert cols.shape == (2 * 36, 3 * 9)

    def test_known_unfold(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        cols, out_h, out_w = im2col(x, kernel=2, stride=2, padding=0)
        assert (out_h, out_w) == (2, 2)
        assert np.array_equal(cols[0], [0, 1, 4, 5])
        assert np.array_equal(cols[3], [10, 11, 14, 15])

    @settings(max_examples=60, deadline=None)
    @given(conv_setups(), st.integers(0, 2**31 - 1))
    def test_col2im_is_adjoint_of_im2col(self, setup, seed):
        n, c, h, w, kernel, stride, padding = setup
        try:
            conv_output_size(h, kernel, stride, padding)
            conv_output_size(w, kernel, stride, padding)
        except ValueError:
            return  # degenerate geometry; nothing to check
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, c, h, w))
        cols, _, _ = im2col(x, kernel, stride, padding)
        y = rng.normal(size=cols.shape)
        lhs = float((cols * y).sum())
        rhs = float((x * col2im(y, x.shape, kernel, stride, padding)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(conv_setups(), st.integers(0, 2**31 - 1))
    def test_unfold_values_come_from_input(self, setup, seed):
        """Every unfolded entry is either an input value or padding zero."""
        n, c, h, w, kernel, stride, padding = setup
        try:
            conv_output_size(h, kernel, stride, padding)
            conv_output_size(w, kernel, stride, padding)
        except ValueError:
            return
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, c, h, w))
        cols, _, _ = im2col(x, kernel, stride, padding)
        values = set(np.round(x.reshape(-1), 9)) | {0.0}
        for entry in np.round(cols.reshape(-1), 9):
            assert entry in values


class TestIm2colGather:
    """A plan's column build: one ``take`` of :func:`gather_index` over a
    zero-bordered channels-last canvas is the strided unfold."""

    @settings(max_examples=60, deadline=None)
    @given(conv_setups(), st.integers(0, 2), st.integers(0, 2**31 - 1))
    def test_gather_equals_unfold(self, setup, extra_border, seed):
        n, c, h, w, kernel, stride, padding = setup
        try:
            conv_output_size(h, kernel, stride, padding)
            conv_output_size(w, kernel, stride, padding)
        except ValueError:
            return
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, c, h, w))
        border = padding + extra_border  # a canvas shared with wider consumers
        canvas = np.zeros((n, h + 2 * border, w + 2 * border, c))
        canvas[:, border : border + h, border : border + w] = x.transpose(0, 2, 3, 1)
        index = gather_index(c, h, w, kernel, stride, padding, border)
        cols = np.take(canvas.reshape(n, -1), index, axis=1).reshape(-1, index.shape[1])
        assert np.array_equal(cols, im2col(x, kernel, stride, padding)[0])

    def test_border_narrower_than_padding_is_refused(self):
        with pytest.raises(ValueError, match="border"):
            gather_index(2, 5, 5, 3, 1, 1, 0)


def _batch_norm(rng, channels: int) -> BatchNorm2d:
    bn = BatchNorm2d(channels)
    bn.gamma.data = rng.normal(1.0, 0.3, channels)
    bn.beta.data = rng.normal(0.0, 0.3, channels)
    bn.running_mean = rng.normal(0.0, 0.3, channels)
    bn.running_var = rng.uniform(0.5, 2.0, channels)
    return bn


@st.composite
def _kept(draw, rng, c, depth):
    """A module that keeps the spatial size: (module, channels out)."""
    kind = draw(st.sampled_from(
        ["conv", "bn", "relu", "maxpool", "seq", "concat", "residual"]
        if depth < 2 else ["conv", "bn", "relu", "maxpool"]
    ))
    if kind == "conv":
        kernel = draw(st.sampled_from([1, 3, 5]))
        out = draw(st.integers(1, 4))
        return Conv2d(c, out, kernel, padding=kernel // 2,
                      bias=draw(st.booleans()), rng=rng), out
    if kind == "bn":
        return _batch_norm(rng, c), c
    if kind == "relu":
        return ReLU(), c
    if kind == "maxpool":
        return MaxPool2d(3, stride=1, padding=1), c
    if kind == "seq":
        layers = []
        for _ in range(draw(st.integers(0, 3))):  # 0: the identity
            layer, c = draw(_kept(rng, c, depth + 1))
            layers.append(layer)
        return Sequential(*layers), c
    if kind == "concat":
        branches, total = [], 0
        for _ in range(draw(st.integers(2, 3))):
            branch, out = draw(_kept(rng, c, depth + 1))
            branches.append(branch)
            total += out
        return Concat(branches), total
    body, out = draw(_kept(rng, c, depth + 1))
    shortcut = None
    if out != c or draw(st.booleans()):
        shortcut = Sequential(Conv2d(c, out, 1, bias=False, rng=rng), _batch_norm(rng, out))
    return Residual(body, shortcut), out


@st.composite
def _layer(draw, rng, c, h, w):
    """Any stack element: (module, channels, height, width) out."""
    kind = draw(st.sampled_from(["kept", "conv", "maxpool", "avgpool", "strided"]))
    if kind == "kept":
        module, c = draw(_kept(rng, c, 0))
        return module, c, h, w
    if kind == "strided":  # a projection block: 3x3/2 body, 1x1/2 shortcut
        out = draw(st.integers(1, 4))
        body = Sequential(Conv2d(c, out, 3, stride=2, padding=1, bias=False, rng=rng),
                          _batch_norm(rng, out))
        shortcut = Sequential(Conv2d(c, out, 1, stride=2, bias=False, rng=rng),
                              _batch_norm(rng, out))
        size = conv_output_size
        return Residual(body, shortcut), out, size(h, 1, 2, 0), size(w, 1, 2, 0)
    kernel = draw(st.sampled_from([1, 3, 5] if kind == "conv" else [2, 3]))
    stride = draw(st.integers(1, 2))
    padding = draw(st.integers(0, kernel // 2))
    if min(h, w) + 2 * padding < kernel:
        return ReLU(), c, h, w
    oh = conv_output_size(h, kernel, stride, padding)
    ow = conv_output_size(w, kernel, stride, padding)
    if kind == "conv":
        out = draw(st.integers(1, 4))
        conv = Conv2d(c, out, kernel, stride=stride, padding=padding,
                      bias=draw(st.booleans()), rng=rng)
        return conv, out, oh, ow
    pool = MaxPool2d if kind == "maxpool" else AvgPool2d
    return pool(kernel, stride=stride, padding=padding), c, oh, ow


@st.composite
def frozen_stacks(draw):
    """A random stack on a non-square input, with its input geometry."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    c = draw(st.integers(1, 3))
    h = draw(st.integers(4, 9))
    w = h + draw(st.integers(1, 3))
    geometry = (c, h, w)
    layers = []
    for _ in range(draw(st.integers(1, 5))):
        layer, c, h, w = draw(_layer(rng, c, h, w))
        layers.append(layer)
    if draw(st.booleans()):
        layers += [GlobalAvgPool2d(), Linear(c, 3, rng=rng)]
    return Sequential(*layers), geometry


class TestFrozenPlanIsEval:
    """A frozen float64 plan computes eval's bits over random stacks of
    convolutions (1/3/5, stride 1/2, any padding up to k//2), batch
    norms, ReLUs, max and average pools and a global-average-pool head,
    nested in Sequential, Concat and Residual, on non-square inputs:
    batched, scalar, and batched again after the scalar plans ran."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(frozen_stacks(), st.integers(2, 4), st.integers(0, 2**31 - 1))
    def test_frozen_stack_equals_eval(self, stack, batch, seed):
        model, (c, h, w) = stack
        model.eval()
        x = np.random.default_rng(seed).normal(0.3, 1.0, size=(batch, c, h, w))
        batched = model(x)
        scalars = [model(x[i : i + 1]) for i in range(batch)]
        model.freeze()
        assert np.array_equal(model(x), batched)
        for i in range(batch):
            assert np.array_equal(model(x[i : i + 1]), scalars[i])
        assert np.array_equal(model(x), batched)
