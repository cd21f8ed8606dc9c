"""Compiled C kernels for the fast backend (cffi + a C compiler).

The fast backend's hot float32 loops — fused batchnorm(+relu) forward
and backward, im2col/col2im, max pooling, one-pass Adam and fused
fake-quant — come from a small C module compiled once per source
revision.  Each kernel computes what its numpy fallback in
:mod:`repro.backend.fast` computes; the fallbacks define the semantics
and run whenever this tier cannot load (no cffi, no compiler, a build
failure).  There is no switch: :func:`kernels` either yields the whole
table or an empty one.

The build is cached on disk under ``REPRO_CKERNEL_CACHE`` (default
``~/.cache/repro-ckernels``) keyed by a hash of the C source, so worker
subprocesses and later runs import the shared object instantly instead
of re-invoking the compiler.  A build runs in a private temp directory
and is published with one atomic rename, so a process killed mid-build
never leaves a partial shared object for others to load.

Nothing outside this module may import cffi directly, and nothing here
runs at import time: the compiler starts on the first kernel lookup.
"""

from __future__ import annotations

import hashlib
import os

_CDEF = """
void bn_train_fwd(const float* x, const float* gamma, const float* beta,
                  float eps, int relu, long n, long c, long p,
                  float* out, float* x_hat, float* mean, float* var,
                  float* inv_std);
void bn_eval_fwd(const float* x, const float* gamma, const float* beta,
                 const float* mean, const float* var, float eps, int relu,
                 long n, long c, long p,
                 float* out, float* x_hat, float* inv_std);
void bn_bwd(const float* grad, const float* x_hat, const float* inv_std,
            const float* gamma, const float* out, int relu, int training,
            long n, long c, long p, float* gx, float* ggamma, float* gbeta);
void im2col(const float* x, float* cols, long n, long c, long h, long w,
            long kernel, long stride, long padding, long oh, long ow);
void col2im(const float* cols, float* gx, long n, long c, long h, long w,
            long kernel, long stride, long padding, long oh, long ow);
void adam_update(float* p, const float* g, float* m, float* v, long size,
                 float lr, float beta1, float beta2, float eps,
                 float weight_decay, float bias1, float bias2);
void fused_fake_quant(const float* x, float* out, long size, float lo,
                      float scale, float inv_scale);
void maxpool_fwd(const float* x, float* out, signed char* idx, long planes,
                 long h, long w, long k);
void maxpool_bwd(const float* grad, const signed char* idx, float* gx,
                 long planes, long h, long w, long k);
"""

_SOURCE = r"""
#include <math.h>
#include <string.h>

/* Fused training-mode batchnorm (+ optional relu) over NCHW input:
   one double-accumulated stats pass and one normalize/scale/shift pass
   per channel, emitting out, x_hat and the per-channel statistics. */
void bn_train_fwd(const float* x, const float* gamma, const float* beta,
                  float eps, int relu, long n, long c, long p,
                  float* out, float* x_hat, float* mean, float* var,
                  float* inv_std) {
    long m = n * p;
    for (long ci = 0; ci < c; ci++) {
        double s = 0.0, ss = 0.0;
        for (long ni = 0; ni < n; ni++) {
            const float* row = x + (ni * c + ci) * p;
            for (long pi = 0; pi < p; pi++) {
                double v = row[pi];
                s += v; ss += v * v;
            }
        }
        double mu = s / m;
        double va = ss / m - mu * mu;
        if (va < 0.0) va = 0.0;
        mean[ci] = (float) mu;
        var[ci] = (float) va;
        float inv = (float)(1.0 / sqrt(va + (double) eps));
        inv_std[ci] = inv;
        float g = gamma[ci], b = beta[ci], mu_f = (float) mu;
        for (long ni = 0; ni < n; ni++) {
            long base = (ni * c + ci) * p;
            const float* row = x + base;
            float* xh = x_hat + base;
            float* o = out + base;
            for (long pi = 0; pi < p; pi++) {
                float xv = (row[pi] - mu_f) * inv;
                xh[pi] = xv;
                float ov = g * xv + b;
                if (relu && ov < 0.0f) ov = 0.0f;
                o[pi] = ov;
            }
        }
    }
}

/* Eval-mode batchnorm from running statistics: single pass. */
void bn_eval_fwd(const float* x, const float* gamma, const float* beta,
                 const float* mean, const float* var, float eps, int relu,
                 long n, long c, long p,
                 float* out, float* x_hat, float* inv_std) {
    for (long ci = 0; ci < c; ci++) {
        float inv = (float)(1.0 / sqrt((double) var[ci] + (double) eps));
        inv_std[ci] = inv;
        float g = gamma[ci], b = beta[ci], mu = mean[ci];
        for (long ni = 0; ni < n; ni++) {
            long base = (ni * c + ci) * p;
            const float* row = x + base;
            float* xh = x_hat + base;
            float* o = out + base;
            for (long pi = 0; pi < p; pi++) {
                float xv = (row[pi] - mu) * inv;
                xh[pi] = xv;
                float ov = g * xv + b;
                if (relu && ov < 0.0f) ov = 0.0f;
                o[pi] = ov;
            }
        }
    }
}

/* Fused batchnorm backward (+ optional relu gate read from the saved
   post-relu output): one reduction pass, one gradient pass, zero
   full-size temporaries. */
void bn_bwd(const float* grad, const float* x_hat, const float* inv_std,
            const float* gamma, const float* out, int relu, int training,
            long n, long c, long p, float* gx, float* ggamma, float* gbeta) {
    long m = n * p;
    for (long ci = 0; ci < c; ci++) {
        double sg = 0.0, sgx = 0.0;
        for (long ni = 0; ni < n; ni++) {
            long base = (ni * c + ci) * p;
            const float* g = grad + base;
            const float* xh = x_hat + base;
            const float* o = out + base;
            for (long pi = 0; pi < p; pi++) {
                float gv = g[pi];
                if (relu && o[pi] <= 0.0f) gv = 0.0f;
                sg += gv; sgx += gv * (double) xh[pi];
            }
        }
        ggamma[ci] = (float) sgx;
        gbeta[ci] = (float) sg;
        float scale = gamma[ci] * inv_std[ci];
        float mean_dy = (float)(sg / m), mean_dy_xhat = (float)(sgx / m);
        for (long ni = 0; ni < n; ni++) {
            long base = (ni * c + ci) * p;
            const float* g = grad + base;
            const float* xh = x_hat + base;
            const float* o = out + base;
            float* r = gx + base;
            for (long pi = 0; pi < p; pi++) {
                float gv = g[pi];
                if (relu && o[pi] <= 0.0f) gv = 0.0f;
                if (training)
                    r[pi] = scale * (gv - mean_dy - xh[pi] * mean_dy_xhat);
                else
                    r[pi] = scale * gv;
            }
        }
    }
}

/* im2col gather with implicit zero padding: writes each (channel,
   ki, kj) row of the column matrix contiguously, no padded copy and
   no strided-view reshape on the way out.  At stride 1 each output
   row is a shifted copy of the input row, so the interior is a
   memcpy and only the padding fringe is written scalar. */
void im2col(const float* x, float* cols, long n, long c, long h, long w,
            long kernel, long stride, long padding, long oh, long ow) {
    long ncols = n * oh * ow;
    for (long ci = 0; ci < c; ci++) {
        for (long ki = 0; ki < kernel; ki++) {
            for (long kj = 0; kj < kernel; kj++) {
                float* dst = cols + ((ci * kernel + ki) * kernel + kj) * ncols;
                long j0 = padding - kj > 0 ? padding - kj : 0;
                long j1 = w + padding - kj < ow ? w + padding - kj : ow;
                for (long ni = 0; ni < n; ni++) {
                    const float* src = x + (ni * c + ci) * h * w;
                    for (long io = 0; io < oh; io++) {
                        long ih = io * stride + ki - padding;
                        float* d = dst + (ni * oh + io) * ow;
                        if (ih < 0 || ih >= h) {
                            for (long jo = 0; jo < ow; jo++) d[jo] = 0.0f;
                            continue;
                        }
                        const float* s = src + ih * w;
                        if (stride == 1) {
                            for (long jo = 0; jo < j0; jo++) d[jo] = 0.0f;
                            memcpy(d + j0, s + j0 + kj - padding,
                                   (size_t)(j1 - j0) * sizeof(float));
                            for (long jo = j1; jo < ow; jo++) d[jo] = 0.0f;
                            continue;
                        }
                        for (long jo = 0; jo < ow; jo++) {
                            long iw = jo * stride + kj - padding;
                            d[jo] = (iw >= 0 && iw < w) ? s[iw] : 0.0f;
                        }
                    }
                }
            }
        }
    }
}

/* col2im scatter with implicit zero padding: accumulates directly into
   the (already zeroed) gradient buffer, no padded intermediate.  The
   stride-1 interior is a branch-free shifted accumulate the compiler
   can vectorize; only out-of-image columns are skipped. */
void col2im(const float* cols, float* gx, long n, long c, long h, long w,
            long kernel, long stride, long padding, long oh, long ow) {
    long ncols = n * oh * ow;
    for (long ci = 0; ci < c; ci++) {
        for (long ki = 0; ki < kernel; ki++) {
            for (long kj = 0; kj < kernel; kj++) {
                const float* src = cols + ((ci * kernel + ki) * kernel + kj) * ncols;
                long j0 = padding - kj > 0 ? padding - kj : 0;
                long j1 = w + padding - kj < ow ? w + padding - kj : ow;
                for (long ni = 0; ni < n; ni++) {
                    float* dst = gx + (ni * c + ci) * h * w;
                    for (long io = 0; io < oh; io++) {
                        long ih = io * stride + ki - padding;
                        if (ih < 0 || ih >= h) continue;
                        const float* s = src + (ni * oh + io) * ow;
                        float* d = dst + ih * w;
                        if (stride == 1) {
                            float* base = d + kj - padding;
                            for (long jo = j0; jo < j1; jo++) base[jo] += s[jo];
                            continue;
                        }
                        for (long jo = 0; jo < ow; jo++) {
                            long iw = jo * stride + kj - padding;
                            if (iw >= 0 && iw < w) d[iw] += s[jo];
                        }
                    }
                }
            }
        }
    }
}

/* One-pass bias-corrected Adam: param and both moment buffers are
   updated in a single sweep instead of numpy's seven. */
void adam_update(float* p, const float* g, float* m, float* v, long size,
                 float lr, float beta1, float beta2, float eps,
                 float weight_decay, float bias1, float bias2) {
    float inv_b1 = 1.0f / bias1, inv_b2 = 1.0f / bias2;
    for (long i = 0; i < size; i++) {
        float gi = g[i] + weight_decay * p[i];
        m[i] = beta1 * m[i] + (1.0f - beta1) * gi;
        v[i] = beta2 * v[i] + (1.0f - beta2) * gi * gi;
        float mh = m[i] * inv_b1;
        float vh = v[i] * inv_b2;
        p[i] -= lr * mh / (sqrtf(vh) + eps);
    }
}

/* One-pass eqn.-1 round-scale-shift (the caller owns the range). */
void fused_fake_quant(const float* x, float* out, long size, float lo,
                      float scale, float inv_scale) {
    for (long i = 0; i < size; i++) {
        out[i] = rintf((x[i] - lo) * scale) * inv_scale + lo;
    }
}

/* Non-overlapping max pool over (planes, H, W): one pass emitting the
   max and its window offset (first-max ties, matching argmax). */
void maxpool_fwd(const float* x, float* out, signed char* idx, long planes,
                 long h, long w, long k) {
    long oh = h / k, ow = w / k;
    for (long pl = 0; pl < planes; pl++) {
        const float* xp = x + pl * h * w;
        float* op = out + pl * oh * ow;
        signed char* ip = idx + pl * oh * ow;
        for (long io = 0; io < oh; io++) {
            for (long jo = 0; jo < ow; jo++) {
                const float* base = xp + (io * k) * w + jo * k;
                float best = base[0];
                long bi = 0;
                for (long ki = 0; ki < k; ki++) {
                    const float* row = base + ki * w;
                    for (long kj = 0; kj < k; kj++) {
                        if (row[kj] > best) { best = row[kj]; bi = ki * k + kj; }
                    }
                }
                op[io * ow + jo] = best;
                ip[io * ow + jo] = (signed char) bi;
            }
        }
    }
}

/* Adjoint: route each output gradient to its argmax tap (gx pre-zeroed;
   windows are disjoint so plain stores suffice). */
void maxpool_bwd(const float* grad, const signed char* idx, float* gx,
                 long planes, long h, long w, long k) {
    long oh = h / k, ow = w / k;
    for (long pl = 0; pl < planes; pl++) {
        const float* gp = grad + pl * oh * ow;
        const signed char* ip = idx + pl * oh * ow;
        float* xp = gx + pl * h * w;
        for (long io = 0; io < oh; io++) {
            for (long jo = 0; jo < ow; jo++) {
                long b = ip[io * ow + jo];
                xp[(io * k + b / k) * w + jo * k + b % k] = gp[io * ow + jo];
            }
        }
    }
}
"""

def _cache_dir() -> str:
    root = os.environ.get("REPRO_CKERNEL_CACHE")
    if not root:
        root = os.path.join(os.path.expanduser("~"), ".cache", "repro-ckernels")
    return root


def _load():
    """Import the compiled module, building and publishing it on a cache miss."""
    import importlib.util
    import shutil
    import sysconfig
    import tempfile

    import cffi

    digest = hashlib.sha256((_CDEF + _SOURCE).encode()).hexdigest()[:16]
    modname = f"_repro_ck_{digest}"
    root = _cache_dir()
    sofile = os.path.join(root, digest,
                          modname + sysconfig.get_config_var("EXT_SUFFIX"))
    if not os.path.exists(sofile):
        # Other processes load whatever sits at ``sofile``: compile in a
        # private directory and publish with one rename, so a build that
        # dies half-way (a killed worker) is never seen as finished.
        os.makedirs(os.path.dirname(sofile), exist_ok=True)
        tmpdir = tempfile.mkdtemp(prefix=f".build-{digest}-", dir=root)
        try:
            ffi = cffi.FFI()
            ffi.cdef(_CDEF)
            ffi.set_source(
                modname,
                _SOURCE,
                extra_compile_args=["-O3", "-march=native", "-funroll-loops"],
                libraries=["m"],
            )
            os.replace(ffi.compile(tmpdir=tmpdir, verbose=False), sofile)
        finally:
            shutil.rmtree(tmpdir, ignore_errors=True)
    spec = importlib.util.spec_from_file_location(modname, sofile)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_KERNELS: dict | None = None


def kernels() -> dict:
    """Every C kernel by name, loaded once per process; empty when unavailable."""
    global _KERNELS
    if _KERNELS is None:
        try:
            module = _load()
        except Exception:  # no cffi / no compiler / broken toolchain
            _KERNELS = {}
        else:
            _KERNELS = {name: wrap(module) for name, wrap in _WRAPPERS.items()}
    return _KERNELS


def get_kernel(name: str):
    """Return a callable for C kernel ``name``, or None when unavailable."""
    return kernels().get(name)


def _ptr(ffi, array):
    # from_buffer is a C-level view; array.ctypes would build a python
    # ctypes object per call, which shows up at this call frequency.
    return ffi.from_buffer("float[]", array)


def _wrap_bn_train_fwd(module):
    lib, ffi = module.lib, module.ffi

    def bn_train_fwd(x, gamma, beta, eps, relu, out, x_hat, mean, var, inv_std):
        n, c, p = x.shape
        lib.bn_train_fwd(
            _ptr(ffi, x), _ptr(ffi, gamma), _ptr(ffi, beta), eps, int(relu),
            n, c, p, _ptr(ffi, out), _ptr(ffi, x_hat), _ptr(ffi, mean),
            _ptr(ffi, var), _ptr(ffi, inv_std),
        )

    return bn_train_fwd


def _wrap_bn_eval_fwd(module):
    lib, ffi = module.lib, module.ffi

    def bn_eval_fwd(x, gamma, beta, mean, var, eps, relu, out, x_hat, inv_std):
        n, c, p = x.shape
        lib.bn_eval_fwd(
            _ptr(ffi, x), _ptr(ffi, gamma), _ptr(ffi, beta), _ptr(ffi, mean),
            _ptr(ffi, var), eps, int(relu), n, c, p,
            _ptr(ffi, out), _ptr(ffi, x_hat), _ptr(ffi, inv_std),
        )

    return bn_eval_fwd


def _wrap_bn_bwd(module):
    lib, ffi = module.lib, module.ffi

    def bn_bwd(grad, x_hat, inv_std, gamma, out, relu, training, gx, ggamma, gbeta):
        n, c, p = grad.shape
        lib.bn_bwd(
            _ptr(ffi, grad), _ptr(ffi, x_hat), _ptr(ffi, inv_std),
            _ptr(ffi, gamma), _ptr(ffi, out), int(relu), int(training),
            n, c, p, _ptr(ffi, gx), _ptr(ffi, ggamma), _ptr(ffi, gbeta),
        )

    return bn_bwd


def _wrap_im2col(module):
    lib, ffi = module.lib, module.ffi

    def im2col(x, cols, kernel, stride, padding, out_h, out_w):
        n, c, h, w = x.shape
        lib.im2col(
            _ptr(ffi, x), _ptr(ffi, cols), n, c, h, w,
            kernel, stride, padding, out_h, out_w,
        )

    return im2col


def _wrap_col2im(module):
    lib, ffi = module.lib, module.ffi

    def col2im(cols, gx, kernel, stride, padding, out_h, out_w):
        n, c, h, w = gx.shape
        lib.col2im(
            _ptr(ffi, cols), _ptr(ffi, gx), n, c, h, w,
            kernel, stride, padding, out_h, out_w,
        )

    return col2im


def _wrap_adam(module):
    lib, ffi = module.lib, module.ffi

    def adam_update(param, grad, m, v, lr, beta1, beta2, eps, weight_decay,
                    bias1, bias2):
        lib.adam_update(
            _ptr(ffi, param), _ptr(ffi, grad), _ptr(ffi, m), _ptr(ffi, v),
            param.size, lr, beta1, beta2, eps, weight_decay, bias1, bias2,
        )

    return adam_update


def _wrap_fake_quant(module):
    lib, ffi = module.lib, module.ffi

    def fused_fake_quant(x, out, lo, scale, inv_scale):
        lib.fused_fake_quant(_ptr(ffi, x), _ptr(ffi, out), x.size,
                             lo, scale, inv_scale)

    return fused_fake_quant


def _wrap_maxpool_fwd(module):
    lib, ffi = module.lib, module.ffi

    def maxpool_fwd(x, out, idx, k):
        planes, h, w = x.shape
        lib.maxpool_fwd(_ptr(ffi, x), _ptr(ffi, out),
                        ffi.from_buffer("signed char[]", idx),
                        planes, h, w, k)

    return maxpool_fwd


def _wrap_maxpool_bwd(module):
    lib, ffi = module.lib, module.ffi

    def maxpool_bwd(grad, idx, gx, k):
        planes, h, w = gx.shape
        lib.maxpool_bwd(_ptr(ffi, grad),
                        ffi.from_buffer("signed char[]", idx),
                        _ptr(ffi, gx), planes, h, w, k)

    return maxpool_bwd


_WRAPPERS = {
    "batchnorm_train_fwd": _wrap_bn_train_fwd,
    "batchnorm_eval_fwd": _wrap_bn_eval_fwd,
    "batchnorm_bwd": _wrap_bn_bwd,
    "im2col": _wrap_im2col,
    "col2im": _wrap_col2im,
    "adam_update": _wrap_adam,
    "fused_fake_quant": _wrap_fake_quant,
    "maxpool_fwd": _wrap_maxpool_fwd,
    "maxpool_bwd": _wrap_maxpool_bwd,
}
