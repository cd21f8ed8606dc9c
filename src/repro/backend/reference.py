"""The ``reference`` backend: the seed's float64 semantics, bit-for-bit.

The contract: every kernel this backend runs — the overrides here and
the base-class compositions it inherits, the conv lowering included —
returns the same bytes *and* the same strides as the engine did before
the backend seam existed.  Floating-point results are deterministic
given identical operands in identical order, and layout counts: a GEMM
over a transposed operand may round its last bit differently.  A
faster kernel is welcome here only if it keeps that contract.

Three chains run compiled where the C tier loads and can take the
operands (:mod:`repro.backend._ckernels`), and as the seed's numpy code
otherwise:

* the conv lowering — im2col/col2im in float64;
* eqn.-1 fake quantization — one loop over clip, shift, scale, round,
  int64 code, rescale and shift back, for a dynamic quantizer whose
  range is finite and non-degenerate;
* the Adam update — one loop writing a fresh parameter and updating
  ``m``/``v`` in place, for dense float64 operands laid out alike.

They keep the seed's bytes because each loop runs the seed's numpy ops
in the seed's order, with every multiply and add rounded on its own
(the build forbids contracting them into FMAs), and because the parts
numpy computes with its own algorithms stay in numpy: fake-quant takes
its range from ``x.min()``/``x.max()``, which also decide the sign of a
zero ``lo``, and a fresh output from ``np.empty_like(x)``, which keeps
the seed's layout.  Batchnorm stays numpy; it reduces its statistics
once, with numpy's own sums (see ``ArrayBackend.batchnorm_train``).  So
a run's bytes do not depend on the host's kernel tier.  The tests that
pin it compare against test-local copies of the seed code:
``tests/test_backend_conv_lowering.py`` (im2col/col2im on both tiers,
conv2d, whole runs with and without the C kernels),
``tests/test_backend_reference_kernels.py`` (fake-quant and Adam on
both tiers), ``tests/test_backend_fused.py`` (the fused elementwise
chains and whole training steps) and the regression suites.
"""

from __future__ import annotations

import math

import numpy as np

from repro.backend.base import ArrayBackend


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
