"""Compiled C kernels for both backends (cffi + a C compiler).

One small C module, compiled once per source revision and flag set,
holds two groups of loops.  Every loop is a template instantiated for
float32 and float64, so both backends run the same code, each in its
own dtype; the numpy code the backends hold is the fallback and what
the seed oracles check:

* data movement, addressing its images through plane strides so both
  backends run it in place on their own layouts: the conv lowering
  (im2col and col2im), which returns the bytes of the numpy lowering in
  :mod:`repro.backend._im2col`, and max pooling, which picks each
  window's tap by numpy argmax's rule (the first maximum wins; a NaN
  wins and ends the scan) and so returns the bytes of the seed's argmax
  pooling in :class:`repro.backend.base.ArrayBackend`;
* arithmetic: eqn.-1 fake quantization, the Adam update and
  training-mode batchnorm's elementwise passes, each a stretch of one of
  :class:`~repro.backend.base.ArrayBackend`'s numpy chains as one loop,
  in the chain's op order and with its bytes: these are built with FMA
  contraction off, so every multiply and add rounds on its own, as
  numpy's do.  Batchnorm's sums are not among them: each pass writes
  the arrays the chain sums next, and the caller sums them with numpy.

The fallbacks define the semantics and run whenever this tier cannot
load (no cffi, no compiler, a build failure), or when a kernel cannot
take its operands: every wrapper checks each operand's dtype, size and
layout before it hands over a pointer, and returns False, writing
nothing, when one does not fit.  There is no switch: :func:`kernels`
either yields the whole table or an empty one.

The flags are ``-O3 -march=native -funroll-loops -fno-math-errno``; the
last lets ``sqrt`` compile to its instruction, so loops that call it
vectorise, and changes no result.  The data-movement loops keep the
compiler's default FMA contraction, which finds nothing there.  The build
is cached on disk under ``REPRO_CKERNEL_CACHE`` (default
``~/.cache/repro-ckernels``) keyed by a hash of the C source and the
compiler flags, so worker subprocesses and later runs import the shared
object instantly instead of re-invoking the compiler.  A build runs in
a private temp directory and is published with one atomic rename, so a
process killed mid-build never leaves a partial shared object for
others to load.

Nothing outside this module may import cffi directly, and nothing here
runs at import time: the compiler starts on the first kernel lookup.
"""

from __future__ import annotations

import hashlib
import os
import string

import numpy as np

_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <string.h>
"""

# The conv lowering, instantiated once per dtype ($T is the C type, $S
# the name suffix).  Image plane (ni, ci) starts at element ni*sn +
# ci*sc, and its rows start sh elements apart and are contiguous, so
# both backends' image layouts (and the seed's padded gradient buffer)
# are addressed in place.  The column matrix is C-ordered (C*k*k,
# N*oh*ow): row (ci*k + ki)*k + kj holds tap (ki, kj) of channel ci at
# every output position, N outermost.
_CONV_CDEF = string.Template("""
void im2col_$S(const $T* x, $T* cols, long n, long c, long h, long w,
               long sn, long sc, long sh, long kernel, long stride,
               long padding, long oh, long ow);
void col2im_$S(const $T* cols, $T* gx, long n, long c, long h, long w,
               long sn, long sc, long sh, long kernel, long stride,
               long padding, long oh, long ow);
""")

_CONV_SOURCE = string.Template(r"""
/* im2col gather with implicit zero padding.  At stride 1 a tap that
   misses the image is one memset.  Otherwise each N block is the image
   shifted by the tap: one span copy when block and image rows line up
   (ow == sh, a "same" plane), spanning every N plane at once when they
   sit end to end (sn == oh*ow, a channel-major image), else a copy per
   row.  In-image segments then alternate with zero runs: a head before
   the first, a gap between rows and a tail after the last. */
void im2col_$S(const $T* x, $T* cols, long n, long c, long h, long w,
               long sn, long sc, long sh, long kernel, long stride,
               long padding, long oh, long ow) {
    long block = oh * ow, ncols = n * block;
    for (long ci = 0; ci < c; ci++) {
        for (long ki = 0; ki < kernel; ki++) {
            for (long kj = 0; kj < kernel; kj++) {
                $T* dst = cols + ((ci * kernel + ki) * kernel + kj) * ncols;
                if (stride != 1) {
                    for (long ni = 0; ni < n; ni++) {
                        const $T* src = x + ni * sn + ci * sc;
                        $T* d = dst + ni * block;
                        for (long io = 0; io < oh; io++) {
                            long ih = io * stride + ki - padding;
                            for (long jo = 0; jo < ow; jo++) {
                                long iw = jo * stride + kj - padding;
                                d[io * ow + jo] = (ih >= 0 && ih < h
                                                   && iw >= 0 && iw < w)
                                    ? src[ih * sh + iw] : 0;
                            }
                        }
                    }
                    continue;
                }
                long i0 = padding - ki > 0 ? padding - ki : 0;
                long i1 = h + padding - ki < oh ? h + padding - ki : oh;
                long j0 = padding - kj > 0 ? padding - kj : 0;
                long j1 = w + padding - kj < ow ? w + padding - kj : ow;
                if (i0 >= i1 || j0 >= j1) {
                    memset(dst, 0, (size_t) ncols * sizeof($T));
                    continue;
                }
                /* Output (io, jo) reads src[io*sh + jo + shift]. */
                long shift = (ki - padding) * sh + kj - padding;
                long run = (ow == sh && sn == block) ? n : 1;
                for (long n0 = 0; n0 < n; n0 += run) {
                    const $T* src = x + n0 * sn + ci * sc;
                    $T* d = dst + n0 * block;
                    if (ow == sh) {
                        long a = i0 * ow + j0;
                        long b = (run - 1) * block + (i1 - 1) * ow + j1;
                        memcpy(d + a, src + a + shift,
                               (size_t)(b - a) * sizeof($T));
                    } else {
                        for (long io = i0; io < i1; io++)
                            memcpy(d + io * ow + j0, src + io * sh + j0 + shift,
                                   (size_t)(j1 - j0) * sizeof($T));
                    }
                }
                long head = i0 * ow + j0, gap = ow - (j1 - j0);
                long tail = (oh - i1) * ow + ow - j1;
                for (long ni = 0; ni < n; ni++) {
                    $T* d = dst + ni * block;
                    for (long t = 0; t < head; t++) d[t] = 0;
                    for (long io = i0; io < i1 - 1; io++)
                        for (long t = j1; t < j1 + gap; t++) d[io * ow + t] = 0;
                    for (long t = 0; t < tail; t++) d[(i1 - 1) * ow + j1 + t] = 0;
                }
            }
        }
    }
}

/* col2im scatter, the adjoint: adds each tap into the (already zeroed)
   image, taps in (ki, kj) order, so every pixel sums its contributions
   in the seed's order.  At stride 1 a tap that misses the image is
   skipped, and the rest add only their in-image rows and columns. */
void col2im_$S(const $T* restrict cols, $T* restrict gx, long n, long c,
               long h, long w, long sn, long sc, long sh, long kernel,
               long stride, long padding, long oh, long ow) {
    long block = oh * ow, ncols = n * block;
    for (long ci = 0; ci < c; ci++) {
        for (long ki = 0; ki < kernel; ki++) {
            for (long kj = 0; kj < kernel; kj++) {
                const $T* src = cols + ((ci * kernel + ki) * kernel + kj) * ncols;
                if (stride != 1) {
                    for (long ni = 0; ni < n; ni++) {
                        const $T* s = src + ni * block;
                        $T* d = gx + ni * sn + ci * sc;
                        for (long io = 0; io < oh; io++) {
                            long ih = io * stride + ki - padding;
                            if (ih < 0 || ih >= h) continue;
                            for (long jo = 0; jo < ow; jo++) {
                                long iw = jo * stride + kj - padding;
                                if (iw >= 0 && iw < w)
                                    d[ih * sh + iw] += s[io * ow + jo];
                            }
                        }
                    }
                    continue;
                }
                long i0 = padding - ki > 0 ? padding - ki : 0;
                long i1 = h + padding - ki < oh ? h + padding - ki : oh;
                long j0 = padding - kj > 0 ? padding - kj : 0;
                long j1 = w + padding - kj < ow ? w + padding - kj : ow;
                if (i0 >= i1 || j0 >= j1) continue;
                for (long ni = 0; ni < n; ni++) {
                    const $T* s = src + ni * block;
                    $T* d = gx + ni * sn + ci * sc;
                    for (long io = i0; io < i1; io++) {
                        const $T* sr = s + io * ow;
                        $T* dr = d + (io + ki - padding) * sh + kj - padding + j0;
                        for (long jo = 0; jo < j1 - j0; jo++) dr[jo] += sr[j0 + jo];
                    }
                }
            }
        }
    }
}
""")

# Max pooling over non-overlapping k x k windows, instantiated per dtype
# like the conv lowering and addressing both images the same way: plane
# (ni, ci) at ni*sn + ci*sc, contiguous rows sh apart.  The outputs and
# window offsets are C-ordered (N, C, oh, ow).
_POOL_CDEF = string.Template("""
void maxpool_fwd_$S(const $T* x, $T* out, int64_t* idx, long n, long c,
                    long h, long w, long sn, long sc, long sh, long k);
int maxpool_bwd_$S(const $T* grad, const int64_t* idx, $T* gx, long n,
                   long c, long h, long w, long gn, long gc, long gh,
                   long sn, long sc, long sh, long k);
""")

_POOL_SOURCE = string.Template(r"""
/* Each window's maximum and its offset ki*k + kj, chosen as numpy's
   argmax chooses: the first maximum wins, and a NaN wins and ends the
   scan.  A row of windows is scanned together, tap by tap in (ki, kj)
   order: a window takes a tap only while its best is not NaN and the
   tap is not <= it, a select rather than a branch. */
void maxpool_fwd_$S(const $T* x, $T* out, int64_t* idx, long n, long c,
                    long h, long w, long sn, long sc, long sh, long k) {
    long oh = h / k, ow = w / k;
    $T* o = out;
    int64_t* at = idx;
    for (long ni = 0; ni < n; ni++) {
        for (long ci = 0; ci < c; ci++) {
            const $T* plane = x + ni * sn + ci * sc;
            for (long io = 0; io < oh; io++, o += ow, at += ow) {
                const $T* row = plane + io * k * sh;
                for (long jo = 0; jo < ow; jo++) {
                    o[jo] = row[jo * k];
                    at[jo] = 0;
                }
                for (long t = 1; t < k * k; t++) {
                    const $T* tap = row + (t / k) * sh + t % k;
                    for (long jo = 0; jo < ow; jo++) {
                        $T v = tap[jo * k], best = o[jo];
                        int take = (best == best) & !(v <= best);
                        o[jo] = take ? v : best;
                        at[jo] = take ? t : at[jo];
                    }
                }
            }
        }
    }
}

/* The adjoint: fills gx, each window zero but for its output gradient
   at the argmax tap.  Returns 0, writing nothing, if an offset lies
   outside its window. */
int maxpool_bwd_$S(const $T* grad, const int64_t* idx, $T* gx, long n,
                   long c, long h, long w, long gn, long gc, long gh,
                   long sn, long sc, long sh, long k) {
    long oh = h / k, ow = w / k;
    for (long o = 0; o < n * c * oh * ow; o++)
        if (idx[o] < 0 || idx[o] >= k * k) return 0;
    const int64_t* at = idx;
    for (long ni = 0; ni < n; ni++) {
        for (long ci = 0; ci < c; ci++) {
            const $T* g = grad + ni * gn + ci * gc;
            $T* plane = gx + ni * sn + ci * sc;
            for (long io = 0; io < oh; io++, at += ow) {
                $T* row = plane + io * k * sh;
                for (long ki = 0; ki < k; ki++)
                    for (long j = 0; j < w; j++) row[ki * sh + j] = 0;
                for (long jo = 0; jo < ow; jo++)
                    row[(at[jo] / k) * sh + jo * k + at[jo] % k] =
                        g[io * gh + jo];
            }
        }
    }
    return 1;
}
""")

# The arithmetic loops: eqn.-1 fake quantization, the Adam update and
# training-mode batchnorm's elementwise passes.  Each runs the seed's
# numpy ops in the seed's order in the operand's own type, one rounding
# per op: the pragmas stop the compiler from contracting a multiply and
# an add into one FMA (GCC's pragma for GCC, the C99 one for clang,
# which ignores GCC's).  $M is the C math functions' suffix for $T.
_ARITH_CDEF = string.Template("""
void fake_quant_$S(const $T* x, $T* out, long size, $T lo, $T hi, $T scale,
                   $T inv_scale);
void adam_update_$S(const $T* p, const $T* g, $T* m, $T* v, $T* out,
                    long size, $T lr, $T beta1, $T beta2,
                    $T one_minus_beta1, $T one_minus_beta2, $T eps,
                    int decay, $T weight_decay, $T bias1, $T bias2);
void bn_centre_$S(const $T* x, const $T* mean, $T* centered, $T* sq,
                  long n, long c, long h, long w,
                  long xn, long xc, long xh, long on, long oc, long oh);
void bn_normalize_$S($T* x_hat, const $T* inv_std, const $T* gamma,
                     const $T* beta, $T* out, unsigned char* mask,
                     long n, long c, long h, long w,
                     long xn, long xc, long xh, long on, long oc, long oh,
                     long mn, long mc, long mh);
void bn_grad_terms_$S(const $T* grad, const unsigned char* mask,
                      const $T* x_hat, $T* masked, $T* prod,
                      long n, long c, long h, long w,
                      long gn, long gc, long gh, long mn, long mc, long mh,
                      long xn, long xc, long xh, long an, long ac, long ah,
                      long pn, long pc, long ph);
void bn_grad_input_$S(const $T* grad, const $T* x_hat, const $T* scale,
                      const $T* mean_dy, const $T* mean_dy_xhat, $T* gx,
                      long n, long c, long h, long w,
                      long gn, long gc, long gh, long xn, long xc, long xh,
                      long on, long oc, long oh);
""")

_ARITH_SOURCE = string.Template(r"""
/* Eqn.-1 quantize -> dequantize as UniformQuantizer.fake_quant runs it:
   clip to [lo, hi] (keeping x on a tie, as np.clip does), shift, scale,
   round half to even, rescale, shift back.  The caller owns the range
   and the two scales, and checks that every code fits int64: the seed's
   round trip through an int64 code is then an identity on the result
   (it turns a -0.0 code into 0.0, which the shift by lo does anyway),
   so the loop leaves it out, and vectorises.  nearbyint is rint without
   the inexact flag. */
void fake_quant_$S(const $T* x, $T* out, long size, $T lo, $T hi, $T scale,
                   $T inv_scale) {
#if defined(__clang__)
#pragma STDC FP_CONTRACT OFF
#endif
    for (long i = 0; i < size; i++) {
        $T c = x[i] < lo ? lo : x[i];
        c = c > hi ? hi : c;
        out[i] = nearbyint$M((c - lo) * scale) * inv_scale + lo;
    }
}

/* Bias-corrected Adam as ArrayBackend's numpy chain runs it: m and v in
   place, the new parameter into out.  The chain computes 1 - beta1,
   1 - beta2 and whether to decay in Python, in double, and only then
   narrows them to $T; so does the caller. */
void adam_update_$S(const $T* p, const $T* g, $T* m, $T* v, $T* out,
                    long size, $T lr, $T beta1, $T beta2,
                    $T one_minus_beta1, $T one_minus_beta2, $T eps,
                    int decay, $T weight_decay, $T bias1, $T bias2) {
#if defined(__clang__)
#pragma STDC FP_CONTRACT OFF
#endif
    for (long i = 0; i < size; i++) {
        $T gi = decay ? g[i] + weight_decay * p[i] : g[i];
        $T mi = m[i] * beta1 + one_minus_beta1 * gi;
        $T vi = v[i] * beta2 + one_minus_beta2 * gi * gi;
        m[i] = mi;
        v[i] = vi;
        out[i] = p[i] - lr * (mi / bias1) / (sqrt$M(vi / bias2) + eps);
    }
}

/* centered = x - mean and its square, the operand of the variance sum. */
void bn_centre_$S(const $T* restrict x, const $T* mean,
                  $T* restrict centered, $T* restrict sq,
                  long n, long c, long h, long w,
                  long xn, long xc, long xh, long on, long oc, long oh) {
#if defined(__clang__)
#pragma STDC FP_CONTRACT OFF
#endif
    long sn[] = {xn, on}, sh[] = {xh, oh};
    bn_walk walk = bn_plan(n, h, w, 2, sn, sh);
    BN_WALK(walk, c,
        $T d = x[BN_AT(xn, xc, xh)] - mean[ci];
        centered[BN_AT(on, oc, oh)] = d;
        sq[BN_AT(on, oc, oh)] = d * d;
    )
}

/* x_hat = centered * inv_std, in place over centered, and out = gamma *
   x_hat + beta; with a mask, also mask = out > 0 and out = out * mask,
   written as a select: out * 1 is out, and out * 0 keeps the sign of a
   zero and turns -inf into NaN, as numpy's product does. */
void bn_normalize_$S($T* restrict x_hat, const $T* inv_std,
                     const $T* gamma, const $T* beta, $T* restrict out,
                     unsigned char* restrict mask,
                     long n, long c, long h, long w,
                     long xn, long xc, long xh, long on, long oc, long oh,
                     long mn, long mc, long mh) {
#if defined(__clang__)
#pragma STDC FP_CONTRACT OFF
#endif
    long sn[] = {xn, on, mn}, sh[] = {xh, oh, mh};
    bn_walk walk = bn_plan(n, h, w, mask ? 3 : 2, sn, sh);
    if (!mask) {
        BN_WALK(walk, c,
            $T v = x_hat[BN_AT(xn, xc, xh)] * inv_std[ci];
            x_hat[BN_AT(xn, xc, xh)] = v;
            out[BN_AT(on, oc, oh)] = gamma[ci] * v + beta[ci];
        )
        return;
    }
    BN_WALK(walk, c,
        $T v = x_hat[BN_AT(xn, xc, xh)] * inv_std[ci];
        x_hat[BN_AT(xn, xc, xh)] = v;
        $T o = gamma[ci] * v + beta[ci];
        out[BN_AT(on, oc, oh)] = o > 0 ? o : o * ($T) 0;
        mask[BN_AT(mn, mc, mh)] = o > 0;
    )
}

/* The two arrays the backward sums: masked = grad * mask and prod =
   masked * x_hat; without a mask, just prod = grad * x_hat. */
void bn_grad_terms_$S(const $T* restrict grad,
                      const unsigned char* restrict mask,
                      const $T* restrict x_hat, $T* restrict masked,
                      $T* restrict prod, long n, long c, long h, long w,
                      long gn, long gc, long gh, long mn, long mc, long mh,
                      long xn, long xc, long xh, long an, long ac, long ah,
                      long pn, long pc, long ph) {
#if defined(__clang__)
#pragma STDC FP_CONTRACT OFF
#endif
    long sn[] = {gn, xn, pn, mn, an}, sh[] = {gh, xh, ph, mh, ah};
    bn_walk walk = bn_plan(n, h, w, mask ? 5 : 3, sn, sh);
    if (!mask) {
        BN_WALK(walk, c,
            prod[BN_AT(pn, pc, ph)] =
                grad[BN_AT(gn, gc, gh)] * x_hat[BN_AT(xn, xc, xh)];
        )
        return;
    }
    BN_WALK(walk, c,
        $T g = grad[BN_AT(gn, gc, gh)] * ($T) mask[BN_AT(mn, mc, mh)];
        masked[BN_AT(an, ac, ah)] = g;
        prod[BN_AT(pn, pc, ph)] = g * x_hat[BN_AT(xn, xc, xh)];
    )
}

/* gx = scale * ((grad - mean_dy) - x_hat * mean_dy_xhat), grad masked. */
void bn_grad_input_$S(const $T* restrict grad, const $T* restrict x_hat,
                      const $T* scale, const $T* mean_dy,
                      const $T* mean_dy_xhat, $T* restrict gx,
                      long n, long c, long h, long w,
                      long gn, long gc, long gh, long xn, long xc, long xh,
                      long on, long oc, long oh) {
#if defined(__clang__)
#pragma STDC FP_CONTRACT OFF
#endif
    long sn[] = {gn, xn, on}, sh[] = {gh, xh, oh};
    bn_walk walk = bn_plan(n, h, w, 3, sn, sh);
    BN_WALK(walk, c,
        gx[BN_AT(on, oc, oh)] = scale[ci] * ((grad[BN_AT(gn, gc, gh)]
            - mean_dy[ci]) - x_hat[BN_AT(xn, xc, xh)] * mean_dy_xhat[ci]);
    )
}
""")

# Batchnorm's passes walk their operands alike; the plan and the walk
# carry no arithmetic, so one copy serves both instances.
_BN_WALK_SOURCE = r"""
/* Batchnorm's elementwise passes, as ArrayBackend's numpy chain runs
   them.  Its reductions stay numpy: the caller sums what one pass writes
   and hands the sums to the next.

   Each (N, C, H, W) operand comes with its element strides (sn, sc,
   sh); rows are contiguous.  Rows merge into one run when every
   operand's rows sit end to end (sh == w), and so do a channel's N
   planes when every operand's planes do (sn == h*w): per channel, that
   leaves `planes` runs sn apart, each `rows` runs sh apart, of `len`
   elements.  Runs of 16 or more are walked contiguously, channel by
   channel; below that the channel loop goes innermost, so that short
   runs do not each pay for a vector loop. */
typedef struct { long planes, rows, len; int channel_inner; } bn_walk;

static bn_walk bn_plan(long n, long h, long w, int count, const long* sn,
                       const long* sh) {
    bn_walk walk = {n, h, w, 0};
    int rows_merge = 1, planes_merge = 1;
    for (int i = 0; i < count; i++) {
        rows_merge &= sh[i] == w;
        planes_merge &= sn[i] == h * w;
    }
    if (rows_merge) {
        walk.rows = 1;
        walk.len = h * w;
        if (planes_merge) {
            walk.planes = 1;
            walk.len = n * h * w;
        }
    }
    walk.channel_inner = walk.len < 16;
    return walk;
}

/* Runs the statements that follow `walk, c` once per element, with the
   element at channel ci, run ni (planes), hi (rows) and position i:
   operand p with strides (pn, pc, ph) holds it at BN_AT(pn, pc, ph). */
#define BN_AT(sn, sc, sh) (ni * (sn) + ci * (sc) + hi * (sh) + i)
#define BN_WALK(walk, c, ...)                                           \
    if (!(walk).channel_inner) {                                        \
        for (long ci = 0; ci < (c); ci++)                               \
            for (long ni = 0; ni < (walk).planes; ni++)                 \
                for (long hi = 0; hi < (walk).rows; hi++)               \
                    for (long i = 0; i < (walk).len; i++) {             \
                        __VA_ARGS__                                     \
                    }                                                   \
    } else {                                                            \
        for (long ni = 0; ni < (walk).planes; ni++)                     \
            for (long hi = 0; hi < (walk).rows; hi++)                   \
                for (long i = 0; i < (walk).len; i++)                   \
                    for (long ci = 0; ci < (c); ci++) {                 \
                        __VA_ARGS__                                     \
                    }                                                   \
    }
"""

# (C type, name suffix, dtype, math-function suffix) of each instance.
_FLOAT_TYPES = (("float", "f32", np.float32, "f"),
                ("double", "f64", np.float64, ""))
_CDEF = "".join(cdef.substitute(T=t, S=s)
                for cdef in (_CONV_CDEF, _POOL_CDEF, _ARITH_CDEF)
                for t, s, _, _ in _FLOAT_TYPES)
_SOURCE += "".join(source.substitute(T=t, S=s)
                   for source in (_CONV_SOURCE, _POOL_SOURCE)
                   for t, s, _, _ in _FLOAT_TYPES)
_SOURCE += _BN_WALK_SOURCE + """
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC push_options
#pragma GCC optimize ("fp-contract=off")
#endif
""" + "".join(_ARITH_SOURCE.substitute(T=t, S=s, M=m)
              for t, s, _, m in _FLOAT_TYPES) + """
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC pop_options
#endif
"""
# Part of the build's cache key: other flags compile other code.
# -fno-math-errno lets sqrt compile to its instruction, so the Adam
# loop vectorises; it changes no result.
_COMPILE_ARGS = ("-O3", "-march=native", "-funroll-loops", "-fno-math-errno")
_LIBRARIES = ("m",)


def _cache_dir() -> str:
    root = os.environ.get("REPRO_CKERNEL_CACHE")
    if not root:
        root = os.path.join(os.path.expanduser("~"), ".cache", "repro-ckernels")
    return root


def _build_path() -> tuple[str, str]:
    """``(module name, shared-object path)`` of this source under these flags."""
    import sysconfig

    build = repr((_CDEF, _SOURCE, _COMPILE_ARGS, _LIBRARIES))
    digest = hashlib.sha256(build.encode()).hexdigest()[:16]
    modname = f"_repro_ck_{digest}"
    return modname, os.path.join(_cache_dir(), digest,
                                 modname + sysconfig.get_config_var("EXT_SUFFIX"))


def _load():
    """Import the compiled module, building and publishing it on a cache miss."""
    import importlib.util
    import shutil
    import tempfile

    import cffi

    modname, sofile = _build_path()
    if not os.path.exists(sofile):
        # Other processes load whatever sits at ``sofile``: compile in a
        # private directory and publish with one rename, so a build that
        # dies half-way (a killed worker) is never seen as finished.
        os.makedirs(os.path.dirname(sofile), exist_ok=True)
        tmpdir = tempfile.mkdtemp(prefix=f".build-{modname}-",
                                  dir=_cache_dir())
        try:
            ffi = cffi.FFI()
            ffi.cdef(_CDEF)
            ffi.set_source(
                modname,
                _SOURCE,
                extra_compile_args=list(_COMPILE_ARGS),
                libraries=list(_LIBRARIES),
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


_I64 = np.dtype(np.int64)
_BOOL = np.dtype(np.bool_)


# The checks below run on every kernel call, so they are plain loops
# that read each array's flags once.
def _takes(dtype, size, *arrays):
    """Whether a flat-pointer kernel may read ``arrays``: each an aligned,
    C-contiguous ``dtype`` array of ``size`` elements."""
    for a in arrays:
        flags = a.flags
        if not (a.dtype == dtype and a.size == size and flags.c_contiguous
                and flags.aligned):
            return False
    return True


def _fills(dtype, size, *arrays):
    """Whether a flat-pointer kernel may write ``arrays``: each a writeable,
    aligned, C-contiguous ``dtype`` array of ``size`` elements."""
    for a in arrays:
        if not (a.dtype == dtype and a.size == size and a.flags.carray):
            return False
    return True


def _dense(a):
    """Whether ``a``'s elements fill one gap-free block upward from its
    data pointer: a C-contiguous array with its axes in some order."""
    step = a.itemsize
    for stride, dim in sorted(zip(a.strides, a.shape)):
        if dim > 1:
            if stride != step:
                return False
            step *= dim
    return True


def _stepped_strides(a):
    """``a``'s strides on its axes longer than one: the only ones stepped."""
    return tuple(s for s, d in zip(a.strides, a.shape) if d > 1)


def _alike(dtype, arrays, outputs):
    """Whether an elementwise kernel may run flat over ``arrays``:
    aligned, dense ``dtype`` arrays of one shape and one layout, so
    element i of each sits at the same offset, with ``outputs`` among
    them writeable."""
    first = arrays[0]
    shape = first.shape
    for a in arrays:  # the common case first: all of them C-contiguous
        flags = a.flags
        if not (flags.c_contiguous and flags.aligned and a.dtype == dtype
                and a.shape == shape):
            break
    else:
        return all(a.flags.writeable for a in outputs)
    layout = _stepped_strides(first)
    return (_dense(first)
            and all(a.dtype == dtype and a.shape == shape
                    and a.flags.aligned and _stepped_strides(a) == layout
                    for a in arrays)
            and all(a.flags.writeable for a in outputs))


def _planes(a, dtype, shape, write=False):
    """Element strides ``(sn, sc, sh)`` through which a plane kernel
    addresses ``a``, or None when it cannot.

    ``a`` must be an aligned ``dtype`` array of the non-empty (N, C, H, W)
    ``shape``, writeable if ``write``, with contiguous rows and positive
    strides.  A stride never stepped reads as contiguous: ``sh = w`` for
    a one-row plane, ``sn = h*w`` for a batch of one.
    """
    flags = a.flags
    if (a.ndim != 4 or a.dtype != dtype or a.shape != shape
            or not flags.aligned or (write and not flags.writeable)
            or not a.size):
        return None
    n, c, h, w = shape
    item = a.itemsize
    sn, sc, sh, sw = a.strides
    sn = sn if n > 1 else h * w * item
    sc = sc if c > 1 else item
    sh = sh if h > 1 else w * item
    if ((w > 1 and sw != item) or min(sn, sc, sh) <= 0
            or sn % item or sc % item or sh % item):
        return None
    return sn // item, sc // item, sh // item


def _conv_strides(image, cols, kernel, out_h, out_w):
    """Element strides ``(sn, sc, sh)`` of ``image`` for a conv kernel, or None.

    None when the kernels cannot address the pair: ``cols`` is not the
    C-ordered (C*k*k, N*out_h*out_w) matrix over ``image`` in its dtype,
    the rows of ``image`` are not contiguous, or either is misaligned.
    """
    n, c, h, w = image.shape
    item = image.itemsize
    sn, sc, sh, sw = image.strides
    if (cols.dtype != image.dtype or not cols.flags.c_contiguous
            or cols.shape != (c * kernel * kernel, n * out_h * out_w)
            or (w > 1 and sw != item) or sn % item or sc % item or sh % item
            or not (image.flags.aligned and cols.flags.aligned)):
        return None
    # One row's stride is never stepped: call it w, so a one-row plane
    # counts as a "same" plane whenever its width matches.
    return sn // item, sc // item, sh // item if h > 1 else w


def _addr(ffi, ctype, array):
    """A ``ctype *`` to element 0 of ``array``, whatever its strides."""
    if array.flags.c_contiguous:
        return ffi.from_buffer(ctype + "[]", array)
    if array.ndim == 4:
        # A conv output is channel-major: C-ordered once N and C swap.
        swapped = array.transpose(1, 0, 2, 3)
        if swapped.flags.c_contiguous:
            return ffi.from_buffer(ctype + "[]", swapped)
    return ffi.cast(ctype + " *", array.ctypes.data)


def _instances(module, op):
    """``{dtype: (C function, C type)}`` of the per-dtype kernel ``op``."""
    return {np.dtype(dtype): (getattr(module.lib, f"{op}_{suffix}"), ctype)
            for ctype, suffix, dtype, _ in _FLOAT_TYPES}


def _wrap_im2col(module):
    ffi, instances = module.ffi, _instances(module, "im2col")

    def im2col(x, cols, kernel, stride, padding, out_h, out_w):
        """Fill ``cols`` from ``x``; False, writing nothing, if they do not fit."""
        instance = instances.get(x.dtype)
        strides = _conv_strides(x, cols, kernel, out_h, out_w)
        if instance is None or strides is None or not cols.flags.writeable:
            return False
        fn, ctype = instance
        fn(_addr(ffi, ctype, x), _addr(ffi, ctype, cols), *x.shape, *strides,
           kernel, stride, padding, out_h, out_w)
        return True

    return im2col


def _wrap_col2im(module):
    ffi, instances = module.ffi, _instances(module, "col2im")

    def col2im(cols, gx, kernel, stride, padding, out_h, out_w):
        """Add ``cols`` into ``gx``; False, writing nothing, if they do not fit."""
        instance = instances.get(gx.dtype)
        strides = _conv_strides(gx, cols, kernel, out_h, out_w)
        if instance is None or strides is None or not gx.flags.writeable:
            return False
        fn, ctype = instance
        fn(_addr(ffi, ctype, cols), _addr(ffi, ctype, gx), *gx.shape, *strides,
           kernel, stride, padding, out_h, out_w)
        return True

    return col2im


def _wrap_maxpool_fwd(module):
    ffi, instances = module.ffi, _instances(module, "maxpool_fwd")

    def maxpool_fwd(x, out, idx, k):
        """Fill ``out`` and its window offsets ``idx`` (int64) from ``x``;
        False, writing nothing, if they do not fit."""
        instance = instances.get(x.dtype)
        n, c, h, w = x.shape
        planes = _planes(x, x.dtype, x.shape)
        size = n * c * (h // k) * (w // k)
        if (instance is None or planes is None or h % k or w % k
                or not (_fills(x.dtype, size, out) and _fills(_I64, size, idx))):
            return False
        fn, ctype = instance
        fn(_addr(ffi, ctype, x), ffi.from_buffer(ctype + "[]", out),
           ffi.from_buffer("int64_t[]", idx), n, c, h, w, *planes, k)
        return True

    return maxpool_fwd


def _wrap_maxpool_bwd(module):
    ffi, instances = module.ffi, _instances(module, "maxpool_bwd")

    def maxpool_bwd(grad, idx, gx, k):
        """Fill ``gx``: ``grad`` at the window offsets ``idx``, zero
        elsewhere; False, writing nothing, if they do not fit or an
        offset lies outside its window."""
        instance = instances.get(gx.dtype)
        n, c, h, w = gx.shape
        pooled = (n, c, h // k, w // k)
        src = _planes(grad, gx.dtype, pooled)
        dst = _planes(gx, gx.dtype, gx.shape, write=True)
        if (instance is None or src is None or dst is None or h % k or w % k
                or idx.shape != pooled or not _takes(_I64, idx.size, idx)):
            return False
        fn, ctype = instance
        return bool(fn(_addr(ffi, ctype, grad), ffi.from_buffer("int64_t[]", idx),
                       _addr(ffi, ctype, gx), n, c, h, w, *src, *dst, k))

    return maxpool_bwd


def _wrap_fake_quant(module):
    ffi, instances = module.ffi, _instances(module, "fake_quant")

    def fake_quant(x, out, lo, hi, scale, inv_scale):
        """Fill ``out`` from ``x``; False, writing nothing, if they do not fit."""
        instance = instances.get(x.dtype)
        if instance is None or not _alike(x.dtype, (x, out), (out,)):
            return False
        fn, ctype = instance
        fn(_addr(ffi, ctype, x), _addr(ffi, ctype, out), x.size, lo, hi, scale,
           inv_scale)
        return True

    return fake_quant


def _wrap_adam(module):
    ffi, instances = module.ffi, _instances(module, "adam_update")

    def adam_update(param, grad, m, v, out, lr, beta1, beta2, eps,
                    weight_decay, bias1, bias2):
        """The new parameter into ``out``, ``m``/``v`` in place; False,
        writing nothing, if any operand does not fit."""
        instance = instances.get(param.dtype)
        operands = (param, grad, m, v, out)
        if instance is None or not _alike(param.dtype, operands, (m, v, out)):
            return False
        fn, ctype = instance
        fn(*(_addr(ffi, ctype, a) for a in operands), param.size, lr, beta1,
           beta2, 1.0 - beta1, 1.0 - beta2, eps, bool(weight_decay),
           weight_decay, bias1, bias2)
        return True

    return adam_update


# Batchnorm's passes.  Each takes (N, C, H, W) operands of one shape and
# dtype through their plane strides, and per-channel vectors as dense
# (C,) arrays of that dtype; a missing mask is None.
def _bn_operands(shape, *operands):
    """Concatenated plane strides of ``(array, dtype, write)`` operands,
    or None when one does not fit; a None array gives zero strides."""
    strides = ()
    for a, dtype, write in operands:
        if a is None:
            strides += (0, 0, 0)
            continue
        planes = _planes(a, dtype, shape, write)
        if planes is None:
            return None
        strides += planes
    return strides


def _wrap_bn_centre(module):
    ffi, instances = module.ffi, _instances(module, "bn_centre")

    def bn_centre(x, mean, centered, sq):
        """``centered = x - mean`` and ``sq = centered * centered``, the two
        outputs laid out alike; False, writing nothing, if they do not fit."""
        shape, dtype = x.shape, x.dtype
        instance = instances.get(dtype)
        strides = _bn_operands(shape, (x, dtype, False), (centered, dtype, True))
        if (instance is None or strides is None
                or _planes(sq, dtype, shape, True) != strides[3:]
                or not _takes(dtype, shape[1], mean)):
            return False
        fn, ctype = instance
        fn(_addr(ffi, ctype, x), _addr(ffi, ctype, mean),
           _addr(ffi, ctype, centered), _addr(ffi, ctype, sq), *shape, *strides)
        return True

    return bn_centre


def _wrap_bn_normalize(module):
    ffi, instances = module.ffi, _instances(module, "bn_normalize")

    def bn_normalize(x_hat, inv_std, gamma, beta, out, mask):
        """``x_hat *= inv_std`` in place, then ``out = gamma * x_hat + beta``
        and, given a ``mask``, the relu; False, writing nothing, if they do
        not fit."""
        shape, dtype = x_hat.shape, x_hat.dtype
        instance = instances.get(dtype)
        strides = _bn_operands(shape, (x_hat, dtype, True), (out, dtype, True),
                               (mask, _BOOL, True))
        if (instance is None or strides is None
                or not _takes(dtype, shape[1], inv_std, gamma, beta)):
            return False
        fn, ctype = instance
        fn(_addr(ffi, ctype, x_hat), _addr(ffi, ctype, inv_std),
           _addr(ffi, ctype, gamma), _addr(ffi, ctype, beta),
           _addr(ffi, ctype, out),
           ffi.NULL if mask is None else _addr(ffi, "unsigned char", mask),
           *shape, *strides)
        return True

    return bn_normalize


def _wrap_bn_grad_terms(module):
    ffi, instances = module.ffi, _instances(module, "bn_grad_terms")

    def bn_grad_terms(grad, mask, x_hat, masked, prod):
        """``masked = grad * mask`` and ``prod = masked * x_hat`` (without a
        mask, ``prod = grad * x_hat`` and ``masked`` is None); False,
        writing nothing, if they do not fit."""
        shape, dtype = x_hat.shape, x_hat.dtype
        instance = instances.get(dtype)
        strides = _bn_operands(
            shape, (grad, dtype, False), (mask, _BOOL, False),
            (x_hat, dtype, False), (masked, dtype, True), (prod, dtype, True))
        if (instance is None or strides is None
                or (mask is None) != (masked is None)):
            return False
        fn, ctype = instance
        null = ffi.NULL
        fn(_addr(ffi, ctype, grad),
           null if mask is None else _addr(ffi, "unsigned char", mask),
           _addr(ffi, ctype, x_hat),
           null if masked is None else _addr(ffi, ctype, masked),
           _addr(ffi, ctype, prod), *shape, *strides)
        return True

    return bn_grad_terms


def _wrap_bn_grad_input(module):
    ffi, instances = module.ffi, _instances(module, "bn_grad_input")

    def bn_grad_input(grad, x_hat, scale, mean_dy, mean_dy_xhat, gx):
        """``gx = scale * ((grad - mean_dy) - x_hat * mean_dy_xhat)``;
        False, writing nothing, if they do not fit."""
        shape, dtype = x_hat.shape, x_hat.dtype
        instance = instances.get(dtype)
        strides = _bn_operands(shape, (grad, dtype, False),
                               (x_hat, dtype, False), (gx, dtype, True))
        if (instance is None or strides is None
                or not _takes(dtype, shape[1], scale, mean_dy, mean_dy_xhat)):
            return False
        fn, ctype = instance
        fn(_addr(ffi, ctype, grad), _addr(ffi, ctype, x_hat),
           _addr(ffi, ctype, scale), _addr(ffi, ctype, mean_dy),
           _addr(ffi, ctype, mean_dy_xhat), _addr(ffi, ctype, gx),
           *shape, *strides)
        return True

    return bn_grad_input


_WRAPPERS = {
    "im2col": _wrap_im2col,
    "col2im": _wrap_col2im,
    "maxpool_fwd": _wrap_maxpool_fwd,
    "maxpool_bwd": _wrap_maxpool_bwd,
    "fake_quant": _wrap_fake_quant,
    "adam_update": _wrap_adam,
    "bn_centre": _wrap_bn_centre,
    "bn_normalize": _wrap_bn_normalize,
    "bn_grad_terms": _wrap_bn_grad_terms,
    "bn_grad_input": _wrap_bn_grad_input,
}
