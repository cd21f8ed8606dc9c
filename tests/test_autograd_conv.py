"""Convolution/pooling: correctness vs naive loops, gradient checks."""

import numpy as np
import pytest

from repro.autograd import Tensor, grad_check
from repro.autograd.conv import (
    col2im,
    conv2d,
    conv_output_size,
    global_avg_pool2d,
    im2col,
    max_pool2d,
)
from repro.backend import use_backend


def naive_conv2d(x, w, b=None, stride=1, padding=0):
    """Reference implementation with explicit loops."""
    n, c, h, width = x.shape
    o, _, k, _ = w.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = (h + 2 * padding - k) // stride + 1
    out_w = (width + 2 * padding - k) // stride + 1
    out = np.zeros((n, o, out_h, out_w))
    for img in range(n):
        for oc in range(o):
            for i in range(out_h):
                for j in range(out_w):
                    patch = x[img, :, i * stride : i * stride + k, j * stride : j * stride + k]
                    out[img, oc, i, j] = (patch * w[oc]).sum()
            if b is not None:
                out[img, oc] += b[oc]
    return out


def naive_max_pool_grad(x, upstream, kernel, stride):
    """Each window's upstream gradient lands on its first maximum."""
    grad = np.zeros_like(x)
    n, c, out_h, out_w = upstream.shape
    for img in range(n):
        for ch in range(c):
            for i in range(out_h):
                for j in range(out_w):
                    window = x[img, ch, i * stride : i * stride + kernel,
                               j * stride : j * stride + kernel]
                    di, dj = np.unravel_index(window.argmax(), window.shape)
                    grad[img, ch, i * stride + di, j * stride + dj] += upstream[img, ch, i, j]
    return grad


class TestOutputSize:
    def test_basic(self):
        assert conv_output_size(32, 3, 1, 1) == 32
        assert conv_output_size(32, 2, 2, 0) == 16
        assert conv_output_size(7, 3, 2, 0) == 3

    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            conv_output_size(2, 5, 1, 0)


class TestIm2col:
    def test_roundtrip_col2im_accumulates(self, rng):
        x = rng.normal(size=(2, 3, 6, 6))
        cols, out_h, out_w = im2col(x, kernel=3, stride=1, padding=1)
        assert cols.shape == (3 * 9, 2 * out_h * out_w)
        back = col2im(np.ones_like(cols), x.shape, 3, 1, 1)
        # Every interior pixel participates in 9 patches.
        assert back[0, 0, 3, 3] == 9.0

    def test_stride_two_shapes(self, rng):
        x = rng.normal(size=(1, 2, 8, 8))
        cols, out_h, out_w = im2col(x, kernel=2, stride=2, padding=0)
        assert (out_h, out_w) == (4, 4)
        assert cols.shape == (2 * 4, 16)


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_matches_naive(self, rng, stride, padding):
        x = rng.normal(size=(2, 3, 7, 7))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        out = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
        expected = naive_conv2d(x, w, b, stride=stride, padding=padding)
        assert np.allclose(out.data, expected)

    def test_no_bias(self, rng):
        x = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        out = conv2d(Tensor(x), Tensor(w))
        assert np.allclose(out.data, naive_conv2d(x, w))

    def test_gradients_numerically(self, rng):
        x = Tensor(rng.normal(size=(2, 2, 5, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        assert grad_check(
            lambda x_, w_, b_: conv2d(x_, w_, b_, stride=1, padding=1),
            [x, w, b],
            atol=1e-5,
        )

    def test_gradients_strided(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 6, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 2, 3, 3)), requires_grad=True)
        assert grad_check(
            lambda x_, w_: conv2d(x_, w_, stride=2, padding=1), [x, w], atol=1e-5
        )

    @pytest.mark.parametrize("padding", [1, 2])
    def test_padding_equals_explicit_zero_padding(self, rng, padding):
        x = rng.normal(size=(2, 3, 5, 5))
        w = rng.normal(size=(4, 3, 3, 3))
        padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        out = conv2d(Tensor(x), Tensor(w), padding=padding)
        assert np.allclose(out.data, conv2d(Tensor(padded), Tensor(w)).data)

    def test_bias_gradient_sums_batch_and_space(self, rng):
        x = Tensor(rng.normal(size=(3, 2, 5, 5)))
        w = Tensor(rng.normal(size=(4, 2, 3, 3)))
        b = Tensor(np.zeros(4), requires_grad=True)
        upstream = rng.normal(size=(3, 4, 3, 3))
        conv2d(x, w, b).backward(upstream)
        assert np.allclose(b.grad, upstream.sum(axis=(0, 2, 3)))

    def test_data_input_gets_no_gradient(self, rng):
        # The first conv's input is data: its gradient is skipped, and
        # the weight gradient is the one a grad-requiring input gets.
        x = rng.normal(size=(2, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        grads = []
        for needs_x in (False, True):
            xt = Tensor(x, requires_grad=needs_x)
            wt = Tensor(w, requires_grad=True)
            conv2d(xt, wt, padding=1).sum().backward()
            assert (xt.grad is not None) == needs_x
            grads.append(wt.grad)
        assert np.array_equal(grads[0], grads[1])

    @pytest.mark.parametrize("kernel,stride,padding",
                             [(1, 1, 0), (5, 1, 2), (3, 2, 0), (2, 2, 0)])
    def test_gradients_numerically_geometries(self, rng, kernel, stride, padding):
        x = Tensor(rng.normal(size=(1, 2, 7, 7)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 2, kernel, kernel)), requires_grad=True)
        b = Tensor(rng.normal(size=2), requires_grad=True)
        assert grad_check(
            lambda x_, w_, b_: conv2d(x_, w_, b_, stride=stride, padding=padding),
            [x, w, b],
            atol=1e-5,
        )

    def test_channel_mismatch_raises(self, rng):
        x = Tensor(rng.normal(size=(1, 3, 5, 5)))
        w = Tensor(rng.normal(size=(2, 4, 3, 3)))
        with pytest.raises(ValueError):
            conv2d(x, w)

    def test_non_square_kernel_rejected(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 5, 5)))
        w = Tensor(rng.normal(size=(1, 1, 3, 2)))
        with pytest.raises(ValueError):
            conv2d(x, w)

    def test_1x1_conv(self, rng):
        x = rng.normal(size=(2, 4, 5, 5))
        w = rng.normal(size=(6, 4, 1, 1))
        out = conv2d(Tensor(x), Tensor(w))
        expected = np.einsum("nchw,oc->nohw", x, w[:, :, 0, 0])
        assert np.allclose(out.data, expected)


class TestMaxPool:
    def test_values_fast_path(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = max_pool2d(Tensor(x), 2)
        assert np.allclose(out.data, [[[[5.0, 7.0], [13.0, 15.0]]]])

    def test_grad_routes_to_max(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4), requires_grad=True)
        max_pool2d(x, 2).sum().backward()
        expected = np.zeros((1, 1, 4, 4))
        expected[0, 0, 1, 1] = expected[0, 0, 1, 3] = 1.0
        expected[0, 0, 3, 1] = expected[0, 0, 3, 3] = 1.0
        assert np.allclose(x.grad, expected)

    def test_strided_slow_path_matches_naive(self, rng):
        x = rng.normal(size=(2, 3, 7, 7))
        out = max_pool2d(Tensor(x), 3, stride=2)
        assert out.shape == (2, 3, 3, 3)
        for i in range(3):
            for j in range(3):
                window = x[:, :, 2 * i : 2 * i + 3, 2 * j : 2 * j + 3]
                assert np.allclose(out.data[:, :, i, j], window.max(axis=(2, 3)))

    def test_grad_check_slow_path(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 5, 5)), requires_grad=True)
        assert grad_check(lambda x_: max_pool2d(x_, 3, stride=2), [x], atol=1e-5)

    @pytest.mark.parametrize("kernel,stride", [(2, 2), (3, 3), (2, 1), (3, 2)])
    def test_grad_goes_to_window_argmax(self, rng, kernel, stride):
        x = rng.normal(size=(2, 2, 6, 6))
        xt = Tensor(x, requires_grad=True)
        out = max_pool2d(xt, kernel, stride=stride)
        upstream = rng.normal(size=out.shape)
        out.backward(upstream)
        assert np.allclose(xt.grad, naive_max_pool_grad(x, upstream, kernel, stride))

    @pytest.mark.parametrize("backend_name", ["reference", "fast"])
    @pytest.mark.parametrize("kernel,stride", [(2, 2), (3, 1)],
                             ids=["fused", "strided"])
    def test_tied_window_routes_gradient_to_first_maximum(self, backend_name,
                                                          kernel, stride):
        with use_backend(backend_name):
            x = Tensor(np.ones((1, 1, 4, 4)), requires_grad=True)
            max_pool2d(x, kernel, stride=stride).sum().backward()
        out_size = (4 - kernel) // stride + 1
        expected = naive_max_pool_grad(np.ones((1, 1, 4, 4)),
                                       np.ones((1, 1, out_size, out_size)),
                                       kernel, stride)
        assert np.array_equal(x.grad, expected)
        # Each window's gradient went to one tap, not split across ties.
        assert x.grad.sum() == out_size ** 2

    def test_trailing_rows_and_columns_get_no_gradient(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 5, 5)), requires_grad=True)
        out = max_pool2d(x, 2)
        assert out.shape == (1, 2, 2, 2)
        for i in range(2):
            for j in range(2):
                window = x.data[:, :, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                assert np.array_equal(out.data[:, :, i, j], window.max(axis=(2, 3)))
        out.sum().backward()
        assert not x.grad[:, :, 4, :].any()
        assert not x.grad[:, :, :, 4].any()


class TestGlobalAvgPool:
    def test_values_and_shape(self, rng):
        x = rng.normal(size=(2, 3, 5, 5))
        out = global_avg_pool2d(Tensor(x))
        assert out.shape == (2, 3, 1, 1)
        assert np.allclose(out.data[..., 0, 0], x.mean(axis=(2, 3)))

    def test_grad(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 4, 4)), requires_grad=True)
        global_avg_pool2d(x).sum().backward()
        assert np.allclose(x.grad, np.full((1, 2, 4, 4), 1.0 / 16.0))

    @pytest.mark.parametrize("height,width", [(1, 1), (3, 5), (4, 4)])
    def test_grad_scales_inverse_area(self, rng, height, width):
        x = Tensor(rng.normal(size=(2, 3, height, width)), requires_grad=True)
        upstream = rng.normal(size=(2, 3, 1, 1))
        global_avg_pool2d(x).backward(upstream)
        expected = np.broadcast_to(upstream / (height * width), x.shape)
        assert np.allclose(x.grad, expected)

    def test_gradient_numerically(self, rng):
        x = Tensor(rng.normal(size=(2, 2, 3, 4)), requires_grad=True)
        assert grad_check(lambda x_: global_avg_pool2d(x_), [x], atol=1e-6)
