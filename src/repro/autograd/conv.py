"""Convolution and pooling primitives built on im2col.

These are the compute-dominant operations in VGG19/ResNet18 training, so
they are implemented as single fused graph nodes (rather than compositions
of indexing ops) with vectorized forward/backward numpy kernels.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor
from repro.backend import active_backend
# conv_output_size is re-exported: callers size conv/pool outputs with it.
from repro.backend._im2col import conv_output_size as conv_output_size


def im2col(x: np.ndarray, kernel: int, stride: int, padding: int):
    """Rearrange (N, C, H, W) into (C*k*k, N*out_h*out_w) patch columns.

    Dispatches to the active backend's kernel (dtype-preserving; both
    backends run the compiled gather where the C kernels load and the
    numpy ``as_strided`` gather otherwise).
    """
    return active_backend().im2col(x, kernel, stride, padding)


def col2im(cols: np.ndarray, x_shape, kernel: int, stride: int, padding: int):
    """Adjoint of :func:`im2col`: scatter patch columns back, accumulating.

    Dispatches to the active backend's kernel.
    """
    return active_backend().col2im(cols, x_shape, kernel, stride, padding)


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D convolution: x (N,C,H,W) * weight (O,C,k,k) -> (N,O,H',W')."""
    n, c, h, w = x.data.shape
    out_channels, in_channels, kernel, kernel_w = weight.data.shape
    if kernel != kernel_w:
        raise ValueError("only square kernels are supported")
    if in_channels != c:
        raise ValueError(f"input has {c} channels, weight expects {in_channels}")

    backend = active_backend()
    cols, out_h, out_w = backend.im2col(x.data, kernel, stride, padding)
    w_mat = weight.data.reshape(out_channels, -1)
    out = backend.matmul(w_mat, cols)  # (O, N*out_h*out_w)
    out = out.reshape(out_channels, n, out_h, out_w).transpose(1, 0, 2, 3)
    if bias is not None:
        out = backend.bias_add(out, bias.data, axis=1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad):
        # grad: (N, O, out_h, out_w)
        grad_mat = grad.transpose(1, 0, 2, 3).reshape(out_channels, -1)
        grad_w = backend.matmul(grad_mat, cols.T).reshape(weight.data.shape)
        if x.requires_grad:
            grad_cols = backend.matmul(w_mat.T, grad_mat)
            grad_x = backend.col2im(grad_cols, x.data.shape, kernel, stride,
                                    padding)
        else:
            # The first conv's input is data: skip its matmul + scatter.
            grad_x = None
        if bias is None:
            return (grad_x, grad_w)
        grad_b = grad.sum(axis=(0, 2, 3))
        return (grad_x, grad_w, grad_b)

    return Tensor.from_op(out, parents, backward, "conv2d")


def max_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Max pooling over non-overlapping or strided square windows."""
    stride = stride or kernel
    n, c, h, w = x.data.shape
    if stride == kernel and h % kernel == 0 and w % kernel == 0:
        # Non-overlapping windows: one fused node on the backend whose
        # residual keeps only argmax indices, not the k*k window expansion.
        backend = active_backend()
        out, residual = backend.maxpool_fwd(x.data, kernel)

        def backward(grad):
            return (backend.maxpool_bwd(grad, residual),)

        return Tensor.from_op(out, (x,), backward, "max_pool2d")

    cols, out_h, out_w = im2col(x.data.reshape(n * c, 1, h, w), kernel, stride, 0)
    windows = cols.reshape(kernel * kernel, n * c, out_h * out_w)
    windows = windows.transpose(1, 2, 0).reshape(n, c, out_h, out_w, -1)
    argmax = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, argmax[..., None], axis=-1)[..., 0]

    def backward(grad):
        grad_windows = np.zeros_like(windows)
        np.put_along_axis(grad_windows, argmax[..., None], grad[..., None], axis=-1)
        cols_grad = grad_windows.reshape(n * c, out_h * out_w, kernel * kernel)
        cols_grad = cols_grad.transpose(2, 0, 1).reshape(kernel * kernel, -1)
        g = col2im(cols_grad, (n * c, 1, h, w), kernel, stride, 0)
        return (g.reshape(n, c, h, w),)

    return Tensor.from_op(out, (x,), backward, "max_pool2d")


def avg_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Average pooling over square windows."""
    stride = stride or kernel
    n, c, h, w = x.data.shape
    if stride == kernel and h % kernel == 0 and w % kernel == 0:
        out_h, out_w = h // kernel, w // kernel
        reshaped = x.data.reshape(n, c, out_h, kernel, out_w, kernel)
        out = reshaped.mean(axis=(3, 5))

        def backward(grad):
            g = grad[:, :, :, None, :, None] / (kernel * kernel)
            g = np.broadcast_to(g, (n, c, out_h, kernel, out_w, kernel))
            return (g.reshape(n, c, h, w),)

        return Tensor.from_op(out, (x,), backward, "avg_pool2d")

    cols, out_h, out_w = im2col(x.data.reshape(n * c, 1, h, w), kernel, stride, 0)
    windows = cols.reshape(kernel * kernel, n * c, out_h * out_w)
    out = windows.mean(axis=0).reshape(n, c, out_h, out_w)

    def backward(grad):
        grad_flat = grad.reshape(1, n * c, out_h * out_w) / (kernel * kernel)
        cols_grad = np.broadcast_to(grad_flat, (kernel * kernel, n * c, out_h * out_w))
        cols_grad = cols_grad.reshape(kernel * kernel, -1)
        g = col2im(cols_grad, (n * c, 1, h, w), kernel, stride, 0)
        return (g.reshape(n, c, h, w),)

    return Tensor.from_op(out, (x,), backward, "avg_pool2d")


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Global average pooling collapsing the spatial dimensions to 1x1."""
    n, c, h, w = x.data.shape
    out = x.data.mean(axis=(2, 3), keepdims=True)

    def backward(grad):
        g = np.broadcast_to(grad / (h * w), (n, c, h, w))
        return (g.copy(),)

    return Tensor.from_op(out, (x,), backward, "global_avg_pool2d")
