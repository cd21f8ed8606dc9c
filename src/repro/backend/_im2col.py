"""The numpy conv lowering, shared by every array backend.

This module is intentionally free of any :mod:`repro.autograd` import:
the backends own the conv lowering, and the autograd conv ops dispatch
to the active backend.  :class:`~repro.backend.base.ArrayBackend` runs
the compiled im2col/col2im of :mod:`repro.backend._ckernels` for both
backends where it loads and can address the operands; these two
kernels are the fallback, and what the seed oracle checks:

* ``im2col`` — a zero-copy ``as_strided`` window view, copied once
  into a fresh (C*k*k, N*out_h*out_w) column matrix;
* ``col2im`` — a k*k strided-slice accumulation into a zeroed image,
  in place of a buffered ``np.add.at`` scatter.

Both return the seed engine's fancy-index gather and ``np.add.at``
scatter byte for byte, with the same strides: every pixel receives its
k*k contributions in the same order, and the column matrix keeps the
seed's memory layout, which the GEMMs downstream round by.
``tests/test_backend_conv_lowering.py`` keeps the seed kernels as the
oracle, and holds the compiled kernels to it as well.  Both are
dtype-preserving: padding and scatter targets are allocated with the
input's dtype, never numpy's float64 default.
"""

from __future__ import annotations

import numpy as np


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling window sweep."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution produces non-positive output size for input={size}, "
            f"kernel={kernel}, stride={stride}, padding={padding}"
        )
    return out


def im2col_strided(x: np.ndarray, kernel: int, stride: int, padding: int):
    """Rearrange (N, C, H, W) into (C*k*k, N*out_h*out_w) patch columns.

    Columns run row-major within the k*k patch, output positions
    row-major.  The result is always a fresh, writeable array, laid out
    as the seed's fancy-index gather left it.  That gather stored output
    positions outermost, then N and C in ``x``'s own stride order, and
    its final reshape kept this layout only for 1x1 windows at N == 1,
    or at a single output position unless N is the faster of N and C:
    those columns are channel-fastest, all others C-contiguous.
    """
    n, c, h, w = x.shape
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(c, kernel, kernel, n, out_h, out_w),
        strides=(s1, s2, s3, s0, s2 * stride, s3 * stride),
        writeable=False,
    )
    if kernel == 1 and (n == 1 or (out_h * out_w == 1 and abs(s1) <= abs(s0))):
        cols = windows[:, 0, 0].transpose(1, 2, 3, 0).copy().reshape(-1, c).T
    else:
        cols = windows.copy().reshape(c * kernel * kernel, -1)
    return cols, out_h, out_w


def col2im_sliced(cols: np.ndarray, x_shape, kernel: int, stride: int,
                  padding: int) -> np.ndarray:
    """Adjoint of :func:`im2col_strided`: scatter columns back, accumulating.

    For each of the k*k positions inside the patch, all output windows
    touch *distinct* input pixels, so a vectorized ``+=`` on a strided
    slice is exact; overlap between positions accumulates across the
    k*k loop iterations, in the order the seed's ``np.add.at`` added
    them.
    """
    n, c, h, w = x_shape
    h_pad, w_pad = h + 2 * padding, w + 2 * padding
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    x_padded = np.zeros((n, c, h_pad, w_pad), dtype=cols.dtype)
    patches = cols.reshape(c, kernel, kernel, n, out_h, out_w)
    for i in range(kernel):
        i_end = i + stride * out_h
        for j in range(kernel):
            j_end = j + stride * out_w
            x_padded[:, :, i:i_end:stride, j:j_end:stride] += (
                patches[:, i, j].transpose(1, 0, 2, 3)
            )
    if padding > 0:
        return x_padded[:, :, padding:-padding, padding:-padding]
    return x_padded
