"""The ``ArrayBackend`` seam: dtype policy + hot-path array kernels.

A backend owns every decision the autograd/nn/quant stack used to make
by calling ``np.*`` directly:

* the floating dtype (``float64`` for the reference engine, ``float32``
  for the fast path) and all array creation/coercion;
* the conv lowering (im2col gather, col2im scatter, matmul dispatch)
  and max pooling, with the numpy lowering in
  :mod:`repro.backend._im2col` and the seed's argmax pooling as the
  fallback, which is also what the seed oracles check;
* the hot loops — eqn.-1 fake quantization and the SGD/Adam parameter
  updates (Adam's in place) — as the seed's numpy chains;
* the fused chains the models run — relu, batchnorm (train/eval, with
  or without a trailing relu), bias add, linear, cross-entropy and max
  pooling — each exposed as a forward kernel returning an opaque
  *residual* plus a matching backward kernel (bias add is
  forward-only), so the autograd layer can record one graph node per
  chain instead of one per primitive.

Every kernel lives here, and a backend declares only its name and
dtype: the implementations compose the seed engine's op sequence, in
the same order, in the backend's dtype — which is what keeps reference
runs bit-identical to the historical per-primitive graphs (kept as the
test oracle in ``tests/test_backend_fused.py``).  Where the compiled
tier of :mod:`repro.backend._ckernels` loads and takes the operands,
the conv lowering, max pooling, fake-quant, Adam and training-mode
batchnorm's elementwise passes run as its C loops, in the operands'
dtype; each returns its numpy chain's bytes and strides, so no
backend's results depend on the kernel tier.  A kernel is one C call:
it checks the operands it is handed and returns False, writing
nothing, when its loop cannot take them, and the op then runs the
numpy code below.
Residuals are backend-opaque: each kernel saves exactly what its
backward needs (a bool mask for relu, ``(x_hat, inv_std, ...)`` for
batchnorm), and nothing else — forward temporaries die with the
forward call instead of living in backward closures.

Backends are registered by name in :mod:`repro.backend` and selected
via ``ExperimentConfig.backend`` / ``repro ... --backend``.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.backend import _ckernels
from repro.backend._im2col import col2im_sliced, conv_output_size, im2col_strided


class ArrayBackend:
    """Base class for array backends.

    Subclasses set :attr:`name` and :attr:`dtype`; every kernel is
    dtype-generic and defined here.
    """

    name: str = "base"
    dtype: np.dtype = np.dtype(np.float64)

    # ------------------------------------------------------------------
    # dtype policy / array creation
    # ------------------------------------------------------------------
    def asarray(self, value) -> np.ndarray:
        """Coerce ``value`` to this backend's floating dtype (no copy if possible)."""
        if isinstance(value, np.ndarray):
            return value.astype(self.dtype, copy=False)
        return np.asarray(value, dtype=self.dtype)

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(shape, dtype=self.dtype)

    def ones(self, shape) -> np.ndarray:
        return np.ones(shape, dtype=self.dtype)

    def rng_array(self, value) -> np.ndarray:
        """Cast an rng-produced float64 array to the backend dtype.

        Kept separate from :meth:`asarray` so it is explicit that random
        streams are always *drawn* in float64 (identical sequences on
        every backend) and only then narrowed.
        """
        return value.astype(self.dtype, copy=False)

    # ------------------------------------------------------------------
    # Linear algebra / conv lowering
    # ------------------------------------------------------------------
    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a @ b

    @functools.cached_property
    def _kernels(self) -> dict:
        # name -> C kernel, resolved on first use so importing a backend
        # never starts a compiler; tests assign {} on a fresh instance to
        # run every op on its numpy fallback.
        return _ckernels.kernels()

    def im2col(self, x: np.ndarray, kernel: int, stride: int, padding: int):
        """(N, C, H, W) -> ``(cols, out_h, out_w)``, cols fresh (C*k*k, N*out_h*out_w)."""
        gather = self._kernels.get("im2col")
        if gather is not None:
            n, c, h, w = x.shape
            out_h = conv_output_size(h, kernel, stride, padding)
            out_w = conv_output_size(w, kernel, stride, padding)
            # The seed's 1x1 columns at N == 1 or one output position may
            # be channel-fastest, a layout only the numpy lowering makes.
            if kernel > 1 or (n > 1 and out_h * out_w > 1):
                cols = np.empty((c * kernel * kernel, n * out_h * out_w),
                                dtype=x.dtype)
                if gather(x, cols, kernel, stride, padding, out_h, out_w):
                    return cols, out_h, out_w
        return im2col_strided(x, kernel, stride, padding)

    def col2im(self, cols: np.ndarray, x_shape, kernel: int, stride: int,
               padding: int) -> np.ndarray:
        """Adjoint of :meth:`im2col`: scatter columns back, accumulating."""
        scatter = self._kernels.get("col2im")
        if scatter is not None:
            n, c, h, w = x_shape
            out_h = conv_output_size(h, kernel, stride, padding)
            out_w = conv_output_size(w, kernel, stride, padding)
            # The seed's result is the interior view of a zeroed padded
            # buffer; later reductions block by its strides.
            padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding),
                              dtype=cols.dtype)
            gx = padded[:, :, padding:padding + h, padding:padding + w]
            if scatter(cols, gx, kernel, stride, padding, out_h, out_w):
                return gx
        return col2im_sliced(cols, x_shape, kernel, stride, padding)

    # ------------------------------------------------------------------
    # Fused hot loops
    # ------------------------------------------------------------------
    def fake_quant(self, x: np.ndarray, quantizer) -> np.ndarray:
        """Quantize-dequantize ``x`` through ``quantizer`` (eqn. 1).

        The quantizer's quantize -> int64 -> dequantize chain in this
        backend's dtype.  For a dynamic quantizer the C loop runs that
        chain on the range it finds in the same call, when x is finite,
        the range is not degenerate, its width and scale are finite in
        the dtype and every code fits int64.
        """
        x = np.asarray(x, dtype=self.dtype)
        kernel = self._kernels.get("fake_quant")
        if kernel is not None and quantizer.dynamic:
            out = np.empty_like(x)
            if kernel(x, out, quantizer.bits):
                return out
        return quantizer.fake_quant(x, self.dtype)

    def sgd_update(self, param: np.ndarray, grad: np.ndarray,
                   velocity: np.ndarray | None, lr: float, momentum: float,
                   weight_decay: float) -> np.ndarray:
        """One SGD(+momentum, +weight decay) step; returns the new param array.

        ``velocity`` is mutated in place when momentum is active (it is
        the optimizer's slot buffer); ``param`` is not, so callers must
        rebind ``param.data`` to the return value.
        """
        if weight_decay:
            grad = grad + weight_decay * param
        if momentum:
            velocity *= momentum
            velocity += grad
            grad = velocity
        return param - lr * grad

    def adam_update(self, param: np.ndarray, grad: np.ndarray,
                    m: np.ndarray, v: np.ndarray, lr: float, beta1: float,
                    beta2: float, eps: float, weight_decay: float,
                    bias1: float, bias2: float) -> np.ndarray:
        """One bias-corrected Adam step, in place; returns ``param``.

        ``param`` and the optimizer's moment buffers ``m``/``v`` are all
        updated in place, so callers need not rebind ``param.data``;
        ``param`` must be writable.  The C loop runs the chain below
        where the operands are dense arrays of one dtype laid out alike.
        """
        kernel = self._kernels.get("adam_update")
        if kernel is not None and kernel(param, grad, m, v, param, lr, beta1,
                                         beta2, eps, weight_decay, bias1,
                                         bias2):
            return param
        if weight_decay:
            grad = grad + weight_decay * param
        m *= beta1
        m += (1.0 - beta1) * grad
        v *= beta2
        v += (1.0 - beta2) * grad * grad
        m_hat = m / bias1
        v_hat = v / bias2
        return np.subtract(param, lr * m_hat / (np.sqrt(v_hat) + eps),
                           out=param)

    # ------------------------------------------------------------------
    # Fused elementwise chains
    #
    # Each `<op>_fwd` returns ``(out, residual)`` (plus batch statistics
    # for batchnorm_train); ``residual`` is opaque to callers and passed
    # verbatim to the matching `<op>_bwd`.  The compositions below are
    # the seed's op sequences.
    # ------------------------------------------------------------------
    def relu_fwd(self, x: np.ndarray):
        """max(x, 0) with the backward mask saved as the residual."""
        mask = x > 0
        return x * mask, mask

    def relu_bwd(self, grad: np.ndarray, residual) -> np.ndarray:
        return grad * residual

    def bias_add(self, x: np.ndarray, bias: np.ndarray, axis: int = 1) -> np.ndarray:
        """Broadcast-add a 1-D ``bias`` along ``axis`` of ``x``."""
        shape = [1] * x.ndim
        shape[axis] = -1
        return x + bias.reshape(shape)

    def batchnorm_train(self, x: np.ndarray, gamma: np.ndarray,
                        beta: np.ndarray, eps: float, fuse_relu: bool = False):
        """Training-mode batchnorm over (N, H, W), optionally + relu.

        Returns ``(out, mean, var, residual)`` — ``mean``/``var`` are the
        *biased* batch statistics (the layer owns the running-stat EMA and
        the unbiased correction), ``residual`` feeds :meth:`batchnorm_bwd`.
        """
        axes = (0, 2, 3)
        count = x.shape[0] * x.shape[2] * x.shape[3]
        # The seed's ``x.mean(axes)`` and ``x.var(axes)``, each reduction
        # done once.  numpy computes the mean as ``x.sum(axes)`` divided
        # by the element count, and the variance by forming that same
        # mean, subtracting it, squaring, summing and dividing by the
        # count.  These lines make the same calls, so they give the same
        # bytes, and the centred array doubles as the seed's ``x - mean``.
        mean = x.sum(axis=axes) / count
        centre = self._kernels.get("bn_centre")
        if centre is not None:
            # The elementwise passes in C: centre and square, sum; then
            # normalise, affine and relu.  Each writes arrays in x's K
            # order, as the ufuncs below do.  The square goes into out's
            # array and x_hat over centered: each is read before the next
            # pass overwrites it.
            centered, out = np.empty_like(x), np.empty_like(x)
            if centre(x, mean, centered, out):
                var = out.sum(axis=axes) / count
                inv_std = 1.0 / np.sqrt(var + eps)
                mask = np.empty_like(x, dtype=np.bool_) if fuse_relu else None
                if self._kernels["bn_normalize"](centered, inv_std, gamma,
                                                 beta, out, mask):
                    return out, mean, var, (centered, inv_std, mask)
        centered = x - mean[None, :, None, None]
        var = (centered * centered).sum(axis=axes) / count
        inv_std = 1.0 / np.sqrt(var + eps)
        x_hat = centered * inv_std[None, :, None, None]
        out = gamma[None, :, None, None] * x_hat + beta[None, :, None, None]
        relu_mask = None
        if fuse_relu:
            relu_mask = out > 0
            out = out * relu_mask
        return out, mean, var, (x_hat, inv_std, relu_mask)

    def batchnorm_eval(self, x: np.ndarray, gamma: np.ndarray,
                       beta: np.ndarray, running_mean: np.ndarray,
                       running_var: np.ndarray, eps: float,
                       fuse_relu: bool = False):
        """Eval-mode batchnorm using running statistics, optionally + relu.

        Returns ``(out, residual)``.
        """
        inv_std = 1.0 / np.sqrt(running_var + eps)
        x_hat = (x - running_mean[None, :, None, None]) * inv_std[None, :, None, None]
        out = gamma[None, :, None, None] * x_hat + beta[None, :, None, None]
        relu_mask = None
        if fuse_relu:
            relu_mask = out > 0
            out = out * relu_mask
        return out, (x_hat, inv_std, relu_mask)

    def batchnorm_bwd(self, grad: np.ndarray, gamma: np.ndarray, residual,
                      training: bool):
        """Backward for either batchnorm mode; returns (gx, ggamma, gbeta)."""
        x_hat, inv_std, relu_mask = residual
        axes = (0, 2, 3)
        count = grad.shape[0] * grad.shape[2] * grad.shape[3]
        terms = self._kernels.get("bn_grad_terms")
        if terms is not None and training:
            # The training-mode chain's elementwise passes in C: mask the
            # gradient and multiply by x_hat, sum both; then the input
            # gradient, into the product's array, which has the layout
            # numpy gives it too.
            masked = None if relu_mask is None else _product_like(
                grad, relu_mask, x_hat.dtype)
            dy = grad if masked is None else masked
            prod = _product_like(dy, x_hat, x_hat.dtype)
            if terms(grad, relu_mask, x_hat, masked, prod):
                grad_gamma = prod.sum(axis=axes)
                grad_beta = dy.sum(axis=axes)
                if self._kernels["bn_grad_input"](
                        dy, x_hat, gamma * inv_std, grad_beta / count,
                        grad_gamma / count, prod):
                    return prod, grad_gamma, grad_beta
        if relu_mask is not None:
            grad = grad * relu_mask
        grad_gamma = (grad * x_hat).sum(axis=axes)
        grad_beta = grad.sum(axis=axes)
        scale = (gamma * inv_std)[None, :, None, None]
        if not training:
            return grad * scale, grad_gamma, grad_beta
        # The seed's ``grad.mean(axes)`` and ``(grad * x_hat).mean(axes)``:
        # numpy's mean is the sum above divided by the element count.
        mean_dy = (grad_beta / count)[None, :, None, None]
        mean_dy_xhat = (grad_gamma / count)[None, :, None, None]
        grad_x = scale * (grad - mean_dy - x_hat * mean_dy_xhat)
        return grad_x, grad_gamma, grad_beta

    def cross_entropy_fwd(self, logits: np.ndarray, targets: np.ndarray):
        """Mean CE over integer targets; residual is the log-probs matrix."""
        n = logits.shape[0]
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_sum = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        log_probs = shifted - log_sum
        loss = -log_probs[np.arange(n), targets].mean()
        return np.asarray(loss), log_probs

    def cross_entropy_bwd(self, grad: np.ndarray, log_probs: np.ndarray,
                          targets: np.ndarray) -> np.ndarray:
        n = log_probs.shape[0]
        # exp(log_probs) rebuilds the softmax the seed kept alive as
        # ``soft``; the fresh array doubles as the ``soft.copy()``.
        g = np.exp(log_probs)
        g[np.arange(n), targets] -= 1.0
        return g * (grad / n)

    def linear_fwd(self, x: np.ndarray, weight: np.ndarray,
                   bias: np.ndarray | None) -> np.ndarray:
        """x (N, I) @ weight (O, I)^T + bias — one node instead of three."""
        out = self.matmul(x, weight.T)
        if bias is not None:
            out = out + bias
        return out

    def linear_bwd(self, grad: np.ndarray, x: np.ndarray, weight: np.ndarray,
                   has_bias: bool):
        """Returns (gx, gw, gb); ``gb`` is None without a bias."""
        # grad @ weight.T.T hits BLAS with the same strides as the seed's
        # transpose-node round trip; gw keeps the seed's transposed-view
        # layout so optimizer arithmetic sees identical operands.
        gx = self.matmul(grad, weight)
        gw = self.matmul(x.T, grad).T
        gb = grad.sum(axis=0) if has_bias else None
        return gx, gw, gb

    def maxpool_fwd(self, x: np.ndarray, kernel: int):
        """Non-overlapping max pool (stride == kernel, dims divisible).

        Returns ``(out, residual)``; the residual saves the argmax
        indices and the window-expansion layout — not the k*k window
        expansion itself, which the per-primitive graph pinned in its
        closure.  The C kernel, where it loads and takes ``x``, returns
        the same: it picks each window's tap by numpy argmax's rule.
        """
        n, c, h, w = x.shape
        out_h, out_w = h // kernel, w // kernel
        pool = self._kernels.get("maxpool_fwd")
        if pool is not None:
            out = np.empty((n, c, out_h, out_w), dtype=x.dtype)
            argmax = np.empty((n, c, out_h, out_w), dtype=np.int64)
            if pool(x, out, argmax, kernel):
                # The window expansion is a view of x when each window's
                # rows merge into one run of taps, else a C-ordered copy.
                if kernel == 1 or x.strides[2] == kernel * x.strides[3]:
                    strides = _pool_windows(x, kernel).strides
                else:
                    strides = _c_strides(argmax.shape + (kernel * kernel,),
                                         x.itemsize)
                return out, (argmax, x.dtype, strides, kernel)
        windows = _pool_windows(x, kernel)
        argmax = windows.argmax(axis=-1)
        out = np.take_along_axis(windows, argmax[..., None], axis=-1)[..., 0]
        return out, (argmax, windows.dtype, windows.strides, kernel)

    def maxpool_bwd(self, grad: np.ndarray, residual) -> np.ndarray:
        argmax, dtype, win_strides, kernel = residual
        # ``zeros_like(windows)`` in K order, reconstructed from the
        # saved strides: when the window expansion was a no-copy view
        # (w == kernel) its layout is non-contiguous, the per-primitive
        # graph's scatter buffer inherited it, and the reshape in
        # _pool_image returned a *view* with twisted strides — downstream
        # reductions block differently over such a view, so reproducing
        # the layout (not just the values) is what keeps reference runs
        # bit-for-bit.  The 1-element prototype buffer is never read.
        proto = np.lib.stride_tricks.as_strided(
            np.empty(1, dtype=dtype),
            shape=argmax.shape + (kernel * kernel,),
            strides=win_strides,
        )
        scatter = self._kernels.get("maxpool_bwd")
        if scatter is not None:
            # An array laid out as the seed's result, which the kernel
            # fills: C-ordered when the windows were, else the window
            # buffer as the reshape lays it out.
            if proto.flags.c_contiguous:
                n, c, out_h, out_w = argmax.shape
                gx = np.empty((n, c, out_h * kernel, out_w * kernel), dtype)
            else:
                gx = _pool_image(np.empty_like(proto), kernel)
            if scatter(grad, argmax, gx, kernel):
                return gx
        grad_windows = np.zeros_like(proto)
        np.put_along_axis(grad_windows, argmax[..., None], grad[..., None], axis=-1)
        return _pool_image(grad_windows, kernel)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r} dtype={self.dtype}>"


def _product_like(a, b, dtype):
    """A fresh ``dtype`` array laid out as numpy lays out ``a * b``.

    ``a`` and ``b`` share a shape.  numpy's ufunc iterator orders the
    axes by an insertion sort from the innermost axis outward; it moves
    an axis outward past another only when every operand steps it by
    more, so where the operands disagree C order wins, and an axis of
    length one counts for no operand.  An operand whose strides shrink
    from axis to axis, such as a C-contiguous array or a view into a
    padded one, therefore keeps C order.  With one operand,
    ``np.empty_like`` gives the same.
    """
    shape = a.shape
    steps = [[0 if d == 1 else abs(s) for d, s in zip(shape, x.strides)]
             for x in (a, b)]
    for step in steps:
        stepped = [s for s in step if s]
        if all(x >= y for x, y in zip(stepped, stepped[1:])):
            return np.empty(shape, dtype)
    order = list(range(len(shape) - 1, -1, -1))  # innermost first
    for i in range(1, len(order)):
        axis, pos = order[i], i
        for j in range(i - 1, -1, -1):
            decided = outward = False
            for step in steps:
                if step[axis] and step[order[j]]:
                    if step[order[j]] <= step[axis]:
                        outward = False
                    elif not decided:
                        outward = True
                    decided = True
            if decided:
                if not outward:
                    break
                pos = j
        order[pos + 1:i + 1] = order[pos:i]
        order[pos] = axis
    order.reverse()
    return np.empty([shape[axis] for axis in order],
                    dtype).transpose(np.argsort(order))


def _pool_windows(x: np.ndarray, kernel: int) -> np.ndarray:
    """(N, C, H, W) -> the (N, C, oh, ow, k*k) windows, a view when it can be."""
    n, c, h, w = x.shape
    out_h, out_w = h // kernel, w // kernel
    reshaped = x.reshape(n, c, out_h, kernel, out_w, kernel)
    return reshaped.transpose(0, 1, 2, 4, 3, 5).reshape(
        n, c, out_h, out_w, kernel * kernel
    )


def _c_strides(shape, itemsize: int) -> tuple:
    """The strides of a fresh C-ordered array of ``shape``."""
    strides = [itemsize]
    for dim in reversed(shape[1:]):
        strides.append(strides[-1] * dim)
    return tuple(reversed(strides))


def _pool_image(windows: np.ndarray, kernel: int) -> np.ndarray:
    """The adjoint reshape: (N, C, oh, ow, k*k) windows -> (N, C, H, W)."""
    n, c, out_h, out_w, _ = windows.shape
    g = windows.reshape(n, c, out_h, out_w, kernel, kernel)
    return g.transpose(0, 1, 2, 4, 3, 5).reshape(
        n, c, out_h * kernel, out_w * kernel
    )
