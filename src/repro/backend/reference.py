"""The ``reference`` backend: the seed's float64 semantics, bit-for-bit.

The contract: every kernel this backend runs — the overrides here and
the base-class compositions it inherits, the conv lowering included —
returns the same bytes *and* the same strides as the engine did before
the backend seam existed.  Floating-point results are deterministic
given identical operands in identical order, and layout counts: a GEMM
over a transposed operand, or a numpy sum over a differently ordered
array, may round its last bit differently.  A faster kernel is welcome
here only if it keeps that contract.

Five chains run compiled where the C tier loads and can take the
operands (:mod:`repro.backend._ckernels`), and as the seed's numpy code
otherwise:

* the conv lowering — im2col/col2im in float64;
* max pooling — the window maxima and argmax taps, and their adjoint,
  in the float64 instance of the kernel both backends share;
* eqn.-1 fake quantization — one loop over clip, shift, scale, round,
  int64 code, rescale and shift back, for a dynamic quantizer whose
  range is finite and non-degenerate;
* the Adam update — one loop writing a fresh parameter and updating
  ``m``/``v`` in place, for dense float64 operands laid out alike;
* training-mode batchnorm, forward and backward — two loops per
  direction over the elementwise passes between the chain's sums.

They keep the seed's bytes because each loop runs the seed's numpy ops
in the seed's order, with every multiply and add rounded on its own
(the build forbids contracting them into FMAs), and because the parts
numpy computes with its own algorithms stay in numpy.  Every reduction
stays a numpy call: fake-quant's range ``x.min()``/``x.max()`` (which
also decides the sign of a zero ``lo``), batchnorm's four sums, and
max pooling's tie and NaN rule, which the kernel copies from numpy's
argmax rather than calling it.  numpy's sums block by the memory order
of their operand, so each array a loop writes for a later sum is laid
out as numpy's own ufunc would have laid it out (see
:func:`_product_like`), and every output keeps the seed's strides.
Eval-mode batchnorm, another dtype, negative or broadcast strides and
rows that are not contiguous (an F-ordered image) take the numpy chain.  So a run's bytes do not depend on the host's
kernel tier.  The tests that pin it compare against test-local copies
of the seed code: ``tests/test_backend_conv_lowering.py`` (im2col/col2im
on both tiers, conv2d, whole runs with and without the C kernels),
``tests/test_backend_reference_kernels.py`` (fake-quant, Adam,
batchnorm and max pooling on both tiers), ``tests/test_backend_fused.py``
(the fused elementwise chains and whole training steps) and the
regression suites.
"""

from __future__ import annotations

import math

import numpy as np

from repro.backend.base import ArrayBackend


def _product_like(a, b):
    """A fresh float64 array laid out as numpy lays out ``a * b``.

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
            return np.empty(shape)
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
    return np.empty([shape[axis] for axis in order]).transpose(np.argsort(order))


class ReferenceBackend(ArrayBackend):
    """float64 engine with the seed's numerics."""

    name = "reference"
    dtype = np.dtype(np.float64)

    def rng_array(self, value) -> np.ndarray:
        # rng output is already float64; this must stay a no-op view.
        return value.astype(self.dtype, copy=False)

    def fake_quant(self, x, quantizer):
        # The quantizer's float64 quantize -> int64 -> dequantize chain is
        # the seed behaviour and the fallback.  The C loop runs that chain
        # on a dynamic range numpy found, when it is finite and wide
        # enough that both scales are finite, and every code fits int64.
        kernel = self._kernels.get("fake_quant_f64")
        if kernel is not None and quantizer.dynamic and quantizer.bits < 63:
            x = np.asarray(x, dtype=np.float64)
            lo, hi = quantizer._range_for(x)
            width = hi - lo
            if 0.0 < width < math.inf:
                levels = (1 << quantizer.bits) - 1
                scale = levels / width
                out = np.empty_like(x)
                if scale < math.inf and kernel(x, out, lo, hi, scale,
                                               width / levels):
                    return out
        return quantizer.fake_quant(x)

    def batchnorm_train(self, x, gamma, beta, eps, fuse_relu=False):
        # ArrayBackend's chain with its elementwise passes in C: centre
        # and square, sum; then normalise, affine and relu.  Each pass
        # writes arrays in x's K order, as the chain's ufuncs do.
        centre = self._kernels.get("bn_centre_f64")
        if centre is not None:
            axes = (0, 2, 3)
            count = x.shape[0] * x.shape[2] * x.shape[3]
            mean = x.sum(axis=axes) / count
            # The square goes into out's array and x_hat over centered:
            # each is read before the next pass overwrites it.
            centered, out = np.empty_like(x), np.empty_like(x)
            if centre(x, mean, centered, out):
                var = out.sum(axis=axes) / count
                inv_std = 1.0 / np.sqrt(var + eps)
                mask = np.empty_like(x, dtype=np.bool_) if fuse_relu else None
                if self._kernels["bn_normalize_f64"](centered, inv_std, gamma,
                                                     beta, out, mask):
                    return out, mean, var, (centered, inv_std, mask)
        return super().batchnorm_train(x, gamma, beta, eps, fuse_relu)

    def batchnorm_bwd(self, grad, gamma, residual, training):
        # ArrayBackend's training-mode chain with its elementwise passes
        # in C: mask the gradient and multiply by x_hat, sum both; then
        # the input gradient, into the product's array, which has the
        # seed's layout for it too.
        terms = self._kernels.get("bn_grad_terms_f64")
        if terms is not None and training:
            x_hat, inv_std, relu_mask = residual
            masked = None if relu_mask is None else _product_like(grad,
                                                                  relu_mask)
            dy = grad if masked is None else masked
            prod = _product_like(dy, x_hat)
            if terms(grad, relu_mask, x_hat, masked, prod):
                axes = (0, 2, 3)
                grad_gamma = prod.sum(axis=axes)
                grad_beta = dy.sum(axis=axes)
                count = grad.shape[0] * grad.shape[2] * grad.shape[3]
                if self._kernels["bn_grad_input_f64"](
                        dy, x_hat, gamma * inv_std, grad_beta / count,
                        grad_gamma / count, prod):
                    return prod, grad_gamma, grad_beta
        return super().batchnorm_bwd(grad, gamma, residual, training)

    def sgd_update(self, param, grad, velocity, lr, momentum, weight_decay):
        if weight_decay:
            grad = grad + weight_decay * param
        if momentum:
            velocity *= momentum
            velocity += grad
            grad = velocity
        return param - lr * grad

    def adam_update(self, param, grad, m, v, lr, beta1, beta2, eps,
                    weight_decay, bias1, bias2):
        kernel = self._kernels.get("adam_update_f64")
        if kernel is not None:
            out = np.empty_like(param)
            if kernel(param, grad, m, v, out, lr, beta1, beta2, eps,
                      weight_decay, bias1, bias2):
                return out
        if weight_decay:
            grad = grad + weight_decay * param
        m *= beta1
        m += (1.0 - beta1) * grad
        v *= beta2
        v += (1.0 - beta2) * grad * grad
        m_hat = m / bias1
        v_hat = v / bias2
        return param - lr * m_hat / (np.sqrt(v_hat) + eps)
