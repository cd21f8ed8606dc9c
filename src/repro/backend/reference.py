"""The ``reference`` backend: the seed's float64 semantics, bit-for-bit.

The contract: every kernel this backend runs — the overrides here and
the base-class compositions it inherits, the conv lowering included —
returns the same bytes *and* the same strides as the engine did before
the backend seam existed.  Floating-point results are deterministic
given identical operands in identical order, and layout counts: a GEMM
over a transposed operand may round its last bit differently.  A
faster kernel is welcome here only if it keeps that contract.  The conv
lowering is the compiled float64 im2col/col2im where the C tier loads
and the numpy lowering otherwise; both keep it, so a run's bytes do not
depend on the host's kernel tier.  The tests that pin it compare
against test-local copies of the seed code:
``tests/test_backend_conv_lowering.py`` (im2col/col2im on both tiers,
conv2d, whole runs with and without the C kernels),
``tests/test_backend_fused.py`` (the fused elementwise chains and whole
training steps) and the regression suites.
"""

from __future__ import annotations

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
        # The quantizer's own float64 quantize -> int64 round -> dequantize
        # chain is the seed behavior; delegate untouched.
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
        if weight_decay:
            grad = grad + weight_decay * param
        m *= beta1
        m += (1.0 - beta1) * grad
        v *= beta2
        v += (1.0 - beta2) * grad * grad
        m_hat = m / bias1
        v_hat = v / bias2
        return param - lr * m_hat / (np.sqrt(v_hat) + eps)
