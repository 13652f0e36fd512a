"""Property-based tests for the im2col/col2im core.

The correctness of every convolution gradient in the framework reduces to
one algebraic fact: ``col2im`` is the adjoint of ``im2col``,
``<im2col(x), y> = <x, col2im(y)>`` for all x, y.  Hypothesis checks it
across shapes, strides and paddings, and checks that the frozen path's
gathered column build is the strided unfold, entry for entry.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.functional import (
    InferenceArena,
    col2im,
    conv_output_size,
    im2col,
    im2col_gather,
)


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
    #: shared by every example, so it regrows and is reused between them
    arena = InferenceArena()

    @settings(max_examples=60, deadline=None)
    @given(conv_setups(), st.booleans(), st.integers(0, 2**31 - 1))
    def test_gather_equals_unfold(self, setup, channels_last, seed):
        n, c, h, w, kernel, stride, padding = setup
        try:
            conv_output_size(h, kernel, stride, padding)
            conv_output_size(w, kernel, stride, padding)
        except ValueError:
            return
        rng = np.random.default_rng(seed)
        if channels_last:  # a conv output: NCHW view of NHWC memory
            x = rng.normal(size=(n, h, w, c)).transpose(0, 3, 1, 2)
        else:
            x = rng.normal(size=(n, c, h, w))
        expected = im2col(x, kernel, stride, padding)
        cols, out_h, out_w = im2col_gather(x, kernel, stride, padding, self.arena)
        assert (out_h, out_w) == expected[1:]
        assert np.array_equal(cols, expected[0])
