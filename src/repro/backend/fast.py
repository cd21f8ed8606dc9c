"""The ``fast`` backend: float32 end-to-end with fused hot loops.

Four levers, in order of measured impact on an AD-search trial:

1. float32 everywhere — halves memory traffic and switches every
   ``@`` onto BLAS sgemm;
2. compiled conv lowering and max pooling — the base class's C loops
   for im2col, col2im and the pool's window maxima and adjoint, run in
   float32 here and in float64 for the reference backend, where the C
   tier is up; otherwise the numpy lowering (``as_strided`` windows,
   k*k slice accumulation) and the seed's argmax pooling;
3. fused elementwise chains — fake-quant as an in-place
   round-scale-shift (no int64 round-trip, no float64 upcast) and
   in-place SGD/Adam parameter updates;
4. single-pass batchnorm(+relu) forward and backward — the whole
   mean/var/normalize/scale/shift(/relu) chain in one kernel call,
   and a two-pass zero-temporary backward.

Each hot kernel has exactly two implementations: a cffi-compiled C
kernel (:mod:`repro.backend._ckernels`) and the vectorized numpy
fallback — below, or for im2col/col2im and max pooling the base
class's shared one.
The numpy code is the semantics; the C table is looked up once per
backend instance, on first use (``ArrayBackend._kernels``), and is
empty when the C tier cannot load (no cffi or no compiler), in which
case every op runs its fallback.  An op also runs its fallback when its
kernel declines the operands (another dtype, size or layout than the
float32 loop reads).  There is no switch between them.

Numerics agree with the reference backend to float32 tolerances; the
differential test suite pins that op by op.
"""

from __future__ import annotations

import numpy as np

from repro.backend.base import ArrayBackend

_BN_AXES = (0, 2, 3)


class FastBackend(ArrayBackend):
    """float32 engine with BLAS-shaped convs and fused updates."""

    name = "fast"
    dtype = np.dtype(np.float32)

    # ------------------------------------------------------------------
    # Fused elementwise chains
    # ------------------------------------------------------------------
    def batchnorm_train(self, x, gamma, beta, eps, fuse_relu=False):
        x = np.ascontiguousarray(x, dtype=self.dtype)
        n, c, h, w = x.shape
        kernel = self._kernels.get("batchnorm_train_fwd")
        if kernel is not None:
            out = np.empty_like(x)
            x_hat = np.empty_like(x)
            mean = np.empty(c, dtype=self.dtype)
            var = np.empty(c, dtype=self.dtype)
            inv_std = np.empty(c, dtype=self.dtype)
            if kernel(x.reshape(n, c, -1), gamma, beta, self.dtype.type(eps),
                      fuse_relu, out.reshape(n, c, -1),
                      x_hat.reshape(n, c, -1), mean, var, inv_std):
                gate = out if fuse_relu else None
                return out, mean, var, (x_hat, inv_std, gate)
        # numpy fallback: centered single-temporary chain.  The variance
        # comes from the centered difference (one einsum) rather than
        # E[x^2]-E[x]^2, which cancels catastrophically in float32.
        m = n * h * w
        mean = x.mean(axis=_BN_AXES)
        x_hat = x - mean.reshape(1, -1, 1, 1)
        var = np.einsum("nchw,nchw->c", x_hat, x_hat) / self.dtype.type(m)
        inv_std = 1.0 / np.sqrt(var + self.dtype.type(eps))
        x_hat *= inv_std.reshape(1, -1, 1, 1)
        out = x_hat * gamma.reshape(1, -1, 1, 1)
        out += beta.reshape(1, -1, 1, 1)
        gate = None
        if fuse_relu:
            np.maximum(out, 0.0, out=out)
            gate = out
        return out, mean, var, (x_hat, inv_std, gate)

    def batchnorm_eval(self, x, gamma, beta, running_mean, running_var, eps,
                       fuse_relu=False):
        x = np.ascontiguousarray(x, dtype=self.dtype)
        n, c, h, w = x.shape
        kernel = self._kernels.get("batchnorm_eval_fwd")
        if kernel is not None:
            out = np.empty_like(x)
            x_hat = np.empty_like(x)
            inv_std = np.empty(c, dtype=self.dtype)
            if kernel(x.reshape(n, c, -1), gamma, beta,
                      np.ascontiguousarray(running_mean, dtype=self.dtype),
                      np.ascontiguousarray(running_var, dtype=self.dtype),
                      self.dtype.type(eps), fuse_relu, out.reshape(n, c, -1),
                      x_hat.reshape(n, c, -1), inv_std):
                gate = out if fuse_relu else None
                return out, (x_hat, inv_std, gate)
        inv_std = (1.0 / np.sqrt(running_var + self.dtype.type(eps))).astype(
            self.dtype, copy=False)
        x_hat = x - running_mean.reshape(1, -1, 1, 1)
        x_hat *= inv_std.reshape(1, -1, 1, 1)
        out = x_hat * gamma.reshape(1, -1, 1, 1)
        out += beta.reshape(1, -1, 1, 1)
        gate = None
        if fuse_relu:
            np.maximum(out, 0.0, out=out)
            gate = out
        return out, (x_hat, inv_std, gate)

    def batchnorm_bwd(self, grad, gamma, residual, training):
        x_hat, inv_std, gate = residual
        grad = np.ascontiguousarray(grad, dtype=self.dtype)
        n, c, h, w = grad.shape
        kernel = self._kernels.get("batchnorm_bwd")
        if kernel is not None:
            gx = np.empty_like(grad)
            ggamma = np.empty(c, dtype=self.dtype)
            gbeta = np.empty(c, dtype=self.dtype)
            relu = gate is not None
            out = gate if relu else x_hat  # unread when relu is off
            if kernel(grad.reshape(n, c, -1), x_hat.reshape(n, c, -1),
                      inv_std, gamma, out.reshape(n, c, -1), relu, training,
                      gx.reshape(n, c, -1), ggamma, gbeta):
                return gx, ggamma, gbeta
        if gate is not None:
            grad = grad * (gate > 0)
        ggamma = np.einsum("nchw,nchw->c", grad, x_hat)
        gbeta = grad.sum(axis=_BN_AXES)
        scale = (gamma * inv_std).reshape(1, -1, 1, 1)
        if not training:
            return grad * scale, ggamma, gbeta
        m = self.dtype.type(n * h * w)
        gx = grad - (gbeta / m).reshape(1, -1, 1, 1)
        gx -= x_hat * (ggamma / m).reshape(1, -1, 1, 1)
        gx *= scale
        return gx, ggamma, gbeta

    def fake_quant(self, x, quantizer):
        x = np.asarray(x, dtype=self.dtype)
        lo, hi = quantizer._range_for(x)
        levels = (1 << quantizer.bits) - 1
        if hi == lo:
            return np.full(x.shape, lo, dtype=self.dtype)
        if not quantizer.dynamic:
            # Frozen calibration range: inputs may fall outside it.
            x = np.clip(x, lo, hi)
        scale = levels / (hi - lo)
        inv_scale = (hi - lo) / levels
        kernel = self._kernels.get("fused_fake_quant")
        if kernel is not None:
            out = np.empty_like(x)
            if kernel(x, out, lo, scale, inv_scale):
                return out
        # In-place chain: one temporary, no integer codes materialized.
        # With a dynamic range the clip in eqn. 1 is a no-op (lo/hi ARE
        # the data range), so rint-scale-shift is exact.
        out = x - lo
        out *= scale
        np.rint(out, out=out)
        out *= inv_scale
        out += lo
        return out

    def sgd_update(self, param, grad, velocity, lr, momentum, weight_decay):
        if weight_decay:
            grad = grad + weight_decay * param
        if momentum:
            velocity *= momentum
            velocity += grad
            grad = velocity
        param -= lr * grad
        return param

    def adam_update(self, param, grad, m, v, lr, beta1, beta2, eps,
                    weight_decay, bias1, bias2):
        kernel = self._kernels.get("adam_update")
        if kernel is not None and kernel(param, grad, m, v, lr, beta1, beta2,
                                         eps, weight_decay, bias1, bias2):
            return param
        if weight_decay:
            grad = grad + weight_decay * param
        m *= beta1
        m += (1.0 - beta1) * grad
        v *= beta2
        v += (1.0 - beta2) * grad * grad
        denom = np.sqrt(v * (1.0 / bias2))
        denom += eps
        np.divide(m, denom, out=denom)
        denom *= lr / bias1
        param -= denom
        return param
