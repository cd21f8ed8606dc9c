"""Compiled C kernels for both backends (a C compiler, driven by cffi).

One small shared object, compiled once per source revision and flag set,
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
  numpy's do.  Fake-quant also finds its dynamic range, in one pass
  before its loop.  Batchnorm's sums are not among them: each pass
  writes the arrays the chain sums next, and the caller sums them with
  numpy.

The same shared object holds a CPython module, the dispatch module,
with one entry point per kernel name.  An entry point takes the numpy
arrays as they are, reads each through the buffer protocol and checks
it against its loop's rules in C: dtype and byte order, shape and
size, alignment, layout and writability.  Then it either runs the loop
with the GIL released and returns True, or returns False having written
nothing, and the op runs its numpy fallback.  Each rule has that one
implementation, next to the loop it guards.

The fallbacks define the semantics and run whenever this tier cannot
load (no cffi, no compiler, a build failure, no dispatch module), or
when a kernel cannot take its operands.  There is no switch:
:func:`kernels` either yields the whole table or an empty one.

The flags are ``-O3 -march=native -funroll-loops -fno-math-errno``; the
last lets ``sqrt`` compile to its instruction, so loops that call it
vectorise, and changes no result.  The data-movement loops keep the
compiler's default FMA contraction, which finds nothing there.  cffi
builds against CPython's limited API unless ``_CFFI_NO_LIMITED_API`` is
defined; the dispatch module needs the full API (``Py_buffer``,
``METH_FASTCALL``).  The build is cached on disk under
``REPRO_CKERNEL_CACHE`` (default ``~/.cache/repro-ckernels``) keyed by a
hash of the C source, the compiler flags and the macros, so worker
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
import string

_SOURCE = r"""
#include <float.h>
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
# every output position, N outermost.  Every kernel returns 1 when it
# ran, as the entry points report it.
_CONV_SOURCE = string.Template(r"""
/* im2col gather with implicit zero padding.  At stride 1 a tap that
   misses the image is one memset.  Otherwise each N block is the image
   shifted by the tap: one span copy when block and image rows line up
   (ow == sh, a "same" plane), spanning every N plane at once when they
   sit end to end (sn == oh*ow, a channel-major image), else a copy per
   row.  In-image segments then alternate with zero runs: a head before
   the first, a gap between rows and a tail after the last. */
static int im2col_$S(const $T* x, $T* cols, long n, long c, long h, long w,
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
    return 1;
}

/* col2im scatter, the adjoint: adds each tap into the (already zeroed)
   image, taps in (ki, kj) order, so every pixel sums its contributions
   in the seed's order.  At stride 1 a tap that misses the image is
   skipped, and the rest add only their in-image rows and columns. */
static int col2im_$S(const $T* restrict cols, $T* restrict gx, long n,
                     long c, long h, long w, long sn, long sc, long sh,
                     long kernel, long stride, long padding, long oh,
                     long ow) {
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
    return 1;
}
""")

# Max pooling over non-overlapping k x k windows, instantiated per dtype
# like the conv lowering and addressing both images the same way: plane
# (ni, ci) at ni*sn + ci*sc, contiguous rows sh apart.  The outputs and
# window offsets are C-ordered (N, C, oh, ow).
_POOL_SOURCE = string.Template(r"""
/* Each window's maximum and its offset ki*k + kj, chosen as numpy's
   argmax chooses: the first maximum wins, and a NaN wins and ends the
   scan.  A row of windows is scanned together, tap by tap in (ki, kj)
   order: a window takes a tap only while its best is not NaN and the
   tap is not <= it, a select rather than a branch. */
static int maxpool_fwd_$S(const $T* x, $T* out, int64_t* idx, long n,
                          long c, long h, long w, long sn, long sc, long sh,
                          long k) {
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
    return 1;
}

/* The adjoint: fills gx, each window zero but for its output gradient
   at the argmax tap.  Returns 0, writing nothing, if an offset lies
   outside its window. */
static int maxpool_bwd_$S(const $T* grad, const int64_t* idx, $T* gx,
                          long n, long c, long h, long w, long gn, long gc,
                          long gh, long sn, long sc, long sh, long k) {
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
# which ignores GCC's).  $M is the C math functions' suffix for $T, $L
# its largest finite value.
_ARITH_SOURCE = string.Template(r"""
/* Eqn.-1 quantize -> dequantize on x's own range, as
   UniformQuantizer.fake_quant runs it for a dynamic quantizer.

   One pass finds the range: lanes of minima and maxima the compiler
   keeps in vector registers, and a sum of v - v, which is NaN if any v
   is not finite.  The extremes are numpy's x.min() and x.max() but for
   the sign of a zero extreme, on which no output byte depends.  Then,
   in double, as numpy's chain computes them: the width hi - lo, the
   scale levels / width and the inverse scale width / levels, narrowed
   to $T only after the width and the scale are checked against $L.
   Returns 0, writing nothing, if x holds a NaN or an infinity, if the
   range is degenerate or if the width or the scale exceeds $L: the
   numpy chain decides those.

   The loop clips to [lo, hi] (keeping x on a tie, as np.clip does),
   shifts, scales, rounds half to even, rescales and shifts back.
   Every code fits int64 (bits <= 62), so the seed's round trip through
   an int64 code is an identity on the result (it turns a -0.0 code into
   0.0, which the shift by lo does anyway): the loop leaves it out, and
   vectorises.  nearbyint is rint without the inexact flag. */
static int fake_quant_$S(const $T* x, $T* out, long size, long bits) {
#if defined(__clang__)
#pragma STDC FP_CONTRACT OFF
#endif
    enum { LANES = 32 };  /* GCC 12 vectorises 32 lanes, not 8 or 16 */
    $T lo[LANES], hi[LANES], bad[LANES];
    for (int j = 0; j < LANES; j++) {
        lo[j] = hi[j] = x[0];
        bad[j] = 0;
    }
    long i = 0;
    for (; i + LANES <= size; i += LANES)
        for (int j = 0; j < LANES; j++) {
            $T v = x[i + j];
            lo[j] = v < lo[j] ? v : lo[j];
            hi[j] = v > hi[j] ? v : hi[j];
            bad[j] += v - v;
        }
    for (; i < size; i++) {
        $T v = x[i];
        lo[0] = v < lo[0] ? v : lo[0];
        hi[0] = v > hi[0] ? v : hi[0];
        bad[0] += v - v;
    }
    for (int j = 1; j < LANES; j++) {
        lo[0] = lo[j] < lo[0] ? lo[j] : lo[0];
        hi[0] = hi[j] > hi[0] ? hi[j] : hi[0];
        bad[0] += bad[j];
    }
    double width = (double) hi[0] - (double) lo[0];
    double levels = (double) ((INT64_C(1) << bits) - 1);
    double scale = levels / width;
    if (bad[0] != 0 || !(0.0 < width && width <= $L) || !(scale <= $L))
        return 0;
    $T low = lo[0], high = hi[0], s = ($T) scale, inv = ($T) (width / levels);
    for (i = 0; i < size; i++) {
        $T c = x[i] < low ? low : x[i];
        c = c > high ? high : c;
        out[i] = nearbyint$M((c - low) * s) * inv + low;
    }
    return 1;
}

/* Bias-corrected Adam as ArrayBackend's numpy chain runs it: m and v in
   place, the new parameter into out.  The chain computes 1 - beta1,
   1 - beta2 and whether to decay in Python, in double, and only then
   narrows them to $T; so does the caller. */
static int adam_update_$S(const $T* p, const $T* g, $T* m, $T* v, $T* out,
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
    return 1;
}

/* centered = x - mean and its square, the operand of the variance sum. */
static int bn_centre_$S(const $T* restrict x, const $T* mean,
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
    return 1;
}

/* x_hat = centered * inv_std, in place over centered, and out = gamma *
   x_hat + beta; with a mask, also mask = out > 0 and out = out * mask,
   written as a select: out * 1 is out, and out * 0 keeps the sign of a
   zero and turns -inf into NaN, as numpy's product does. */
static int bn_normalize_$S($T* restrict x_hat, const $T* inv_std,
                           const $T* gamma, const $T* beta, $T* restrict out,
                           unsigned char* restrict mask,
                           long n, long c, long h, long w,
                           long xn, long xc, long xh, long on, long oc,
                           long oh, long mn, long mc, long mh) {
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
        return 1;
    }
    BN_WALK(walk, c,
        $T v = x_hat[BN_AT(xn, xc, xh)] * inv_std[ci];
        x_hat[BN_AT(xn, xc, xh)] = v;
        $T o = gamma[ci] * v + beta[ci];
        out[BN_AT(on, oc, oh)] = o > 0 ? o : o * ($T) 0;
        mask[BN_AT(mn, mc, mh)] = o > 0;
    )
    return 1;
}

/* The two arrays the backward sums: masked = grad * mask and prod =
   masked * x_hat; without a mask, just prod = grad * x_hat. */
static int bn_grad_terms_$S(const $T* restrict grad,
                            const unsigned char* restrict mask,
                            const $T* restrict x_hat, $T* restrict masked,
                            $T* restrict prod, long n, long c, long h, long w,
                            long gn, long gc, long gh, long mn, long mc,
                            long mh, long xn, long xc, long xh, long an,
                            long ac, long ah, long pn, long pc, long ph) {
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
        return 1;
    }
    BN_WALK(walk, c,
        $T g = grad[BN_AT(gn, gc, gh)] * ($T) mask[BN_AT(mn, mc, mh)];
        masked[BN_AT(an, ac, ah)] = g;
        prod[BN_AT(pn, pc, ph)] = g * x_hat[BN_AT(xn, xc, xh)];
    )
    return 1;
}

/* gx = scale * ((grad - mean_dy) - x_hat * mean_dy_xhat), grad masked. */
static int bn_grad_input_$S(const $T* restrict grad, const $T* restrict x_hat,
                            const $T* scale, const $T* mean_dy,
                            const $T* mean_dy_xhat, $T* restrict gx,
                            long n, long c, long h, long w,
                            long gn, long gc, long gh, long xn, long xc,
                            long xh, long on, long oc, long oh) {
#if defined(__clang__)
#pragma STDC FP_CONTRACT OFF
#endif
    long sn[] = {gn, xn, on}, sh[] = {gh, xh, oh};
    bn_walk walk = bn_plan(n, h, w, 3, sn, sh);
    BN_WALK(walk, c,
        gx[BN_AT(on, oc, oh)] = scale[ci] * ((grad[BN_AT(gn, gc, gh)]
            - mean_dy[ci]) - x_hat[BN_AT(xn, xc, xh)] * mean_dy_xhat[ci]);
    )
    return 1;
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

# The dispatch module.  It sits in the no-FMA block with the arithmetic
# loops, which the compiler may inline into it.
_DISPATCH = "_repro_dispatch"
_DISPATCH_SOURCE = string.Template(r"""
/* One METH_FASTCALL entry point per kernel, taking the numpy arrays as
   they are.  Each reads every operand through the buffer protocol and
   applies its loop's rules; then it either runs the loop with the GIL
   released and returns True, or returns False having written nothing.
   A wrong argument count, or a scalar that is not a number, raises. */

/* An operand held for the call, and an image's element strides (sn, sc,
   sh); `absent` stands for a missing mask: no buffer, zero strides. */
typedef struct { Py_buffer view; long s[3]; } operand;
typedef struct { operand ops[6]; int count; } held;
static operand absent;
#define HOLD(h) held h; h.count = 0

#define BUF(op) ((op)->view.buf)
#define FMT(op) ((op)->view.format)
#define SHAPE(op) ((op)->view.shape)
#define SIZE(op) ((op)->view.len / (op)->view.itemsize)
#define DIMS(op) SHAPE(op)[0], SHAPE(op)[1], SHAPE(op)[2], SHAPE(op)[3]
#define S3(op) (op)->s[0], (op)->s[1], (op)->s[2]

/* `obj` as an aligned array of one of `kinds`, each in native byte
   order ('f' float32, 'd' float64, '?' bool, 'q' or 'l' int64), writable
   if `write`; else NULL, with no error set.  Alignment reads the pointer
   and the strides of the axes longer than one: numpy's export rewrites
   the others' when the array is contiguous, and none is ever stepped. */
static operand *take(held *h, PyObject *obj, const char *kinds, int write) {
    operand *op = &h->ops[h->count];
    Py_buffer *b = &op->view;
    if (PyObject_GetBuffer(obj, b, PyBUF_STRIDES | PyBUF_FORMAT
                                   | (write ? PyBUF_WRITABLE : 0))) {
        PyErr_Clear();
        return NULL;
    }
    h->count++;
    const char *f = b->format ? b->format : "B";
    char kind = f[0] == 'l' ? 'q' : f[0];
    if (!kind || f[1] || !strchr(kinds, kind)
        || b->itemsize != (kind == 'f' ? 4 : kind == '?' ? 1 : 8))
        return NULL;
    uintptr_t bits = (uintptr_t) b->buf;
    for (int i = 0; i < b->ndim; i++)
        if (b->shape[i] > 1) bits |= (uintptr_t) b->strides[i];
    return bits % (uintptr_t) b->itemsize ? NULL : op;
}

static int shaped(const Py_buffer *b, int ndim, const Py_ssize_t *shape) {
    if (b->ndim != ndim) return 0;
    for (int i = 0; i < ndim; i++)
        if (b->shape[i] != shape[i]) return 0;
    return 1;
}

/* numpy's C-contiguity: the axes longer than one C-ordered, no gaps. */
static int contiguous(const operand *op) {
    const Py_buffer *b = &op->view;
    Py_ssize_t step = b->itemsize;
    for (int i = b->ndim - 1; i >= 0; i--)
        if (b->shape[i] > 1) {
            if (b->strides[i] != step) return !b->len;
            step *= b->shape[i];
        }
    return 1;
}

/* A per-channel vector: C-contiguous, of `count` elements. */
static int vector(const operand *op, Py_ssize_t count) {
    return op && contiguous(op) && SIZE(op) == count;
}

/* A 4-D image with contiguous rows; sets its plane strides.  An axis of
   length one is never stepped, and its stride reads as contiguous:
   sn = h*w, sc = 1, sh = w. */
static int planes(operand *op) {
    const Py_buffer *b = &op->view;
    const Py_ssize_t *d = b->shape, *t = b->strides, item = b->itemsize;
    if (b->ndim != 4 || (d[3] > 1 && t[3] != item)) return 0;
    op->s[0] = d[0] > 1 ? t[0] / item : d[2] * d[3];
    op->s[1] = d[1] > 1 ? t[1] / item : 1;
    op->s[2] = d[2] > 1 ? t[2] / item : d[3];
    return 1;
}

/* An image the pooling and batchnorm loops take: non-empty, of `shape`,
   with contiguous rows and positive plane strides. */
static int image(operand *op, const Py_ssize_t *shape) {
    return op && planes(op) && shaped(&op->view, 4, shape) && op->view.len
        && op->s[0] > 0 && op->s[1] > 0 && op->s[2] > 0;
}

/* The flat loops' operands, every one held: the first's elements fill
   one gap-free block upward from its pointer, and all share its shape
   and its stride on each axis longer than one, so that element i of
   each sits at the same offset. */
static int alike(const held *h) {
    const Py_buffer *first = &h->ops[0].view;
    Py_ssize_t step = first->itemsize;
    int stepped = 0;
    for (int i = 0; i < first->ndim; i++) stepped += first->shape[i] > 1;
    while (stepped--) {  /* the next axis out is the one `step` apart */
        int i = 0;
        while (i < first->ndim
               && !(first->shape[i] > 1 && first->strides[i] == step)) i++;
        if (i == first->ndim) return 0;
        step *= first->shape[i];
    }
    for (int k = 1; k < h->count; k++) {
        const Py_buffer *b = &h->ops[k].view;
        if (!shaped(b, first->ndim, first->shape)) return 0;
        for (int i = 0; i < b->ndim; i++)
            if (b->shape[i] > 1 && b->strides[i] != first->strides[i])
                return 0;
    }
    return 1;
}

static int arity(const char *name, Py_ssize_t nargs, Py_ssize_t want) {
    if (nargs == want) return 1;
    PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)",
                 name, want, nargs);
    return 0;
}

static int longs(PyObject *const *args, int count, long *out) {
    for (int i = 0; i < count; i++)
        if ((out[i] = PyLong_AsLong(args[i])) == -1 && PyErr_Occurred())
            return 0;
    return 1;
}

static PyObject *finish(held *h, int ok) {
    while (h->count) PyBuffer_Release(&h->ops[--h->count].view);
    return PyBool_FromLong(ok);
}

/* Runs kernel `fn` in lead's type with the GIL released; ok = its result. */
#define RUN(ok, lead, fn, ...) do {                                         \
        Py_BEGIN_ALLOW_THREADS                                              \
        ok = (lead)->view.itemsize == 4 ? fn##_f32(__VA_ARGS__)             \
                                        : fn##_f64(__VA_ARGS__);            \
        Py_END_ALLOW_THREADS                                                \
    } while (0)

/* The conv lowering: an image with contiguous rows, any plane strides,
   and the C-ordered (C*k*k, N*out_h*out_w) column matrix.  im2col reads
   the image (argument 0), col2im writes it (argument 1). */
static PyObject *conv(PyObject *const *a, Py_ssize_t nargs, int scatter) {
    long p[5];  /* kernel, stride, padding, out_h, out_w */
    HOLD(h);
    operand *img, *cols;
    if (!arity(scatter ? "col2im" : "im2col", nargs, 7) || !longs(a + 2, 5, p))
        return NULL;
    int ok = (img = take(&h, a[scatter], "fd", scatter))
        && (cols = take(&h, a[!scatter], FMT(img), !scatter))
        && planes(img) && contiguous(cols) && cols->view.ndim == 2
        && SHAPE(cols)[0] == SHAPE(img)[1] * p[0] * p[0]
        && SHAPE(cols)[1] == SHAPE(img)[0] * p[3] * p[4];
    if (ok && scatter)
        RUN(ok, img, col2im, BUF(cols), BUF(img), DIMS(img), S3(img),
            p[0], p[1], p[2], p[3], p[4]);
    else if (ok)
        RUN(ok, img, im2col, BUF(img), BUF(cols), DIMS(img), S3(img),
            p[0], p[1], p[2], p[3], p[4]);
    return finish(&h, ok);
}

static PyObject *run_im2col(PyObject *m, PyObject *const *a, Py_ssize_t n) {
    return conv(a, n, 0);
}

static PyObject *run_col2im(PyObject *m, PyObject *const *a, Py_ssize_t n) {
    return conv(a, n, 1);
}

/* Pooling: the image and the k x k windows that tile it, the outputs
   and int64 offsets C-ordered (N, C, H/k, W/k). */
static PyObject *run_maxpool_fwd(PyObject *m, PyObject *const *a,
                                 Py_ssize_t nargs) {
    long k;
    HOLD(h);
    operand *x, *out, *idx;
    if (!arity("maxpool_fwd", nargs, 4) || !longs(a + 3, 1, &k)) return NULL;
    int ok = k >= 1 && (x = take(&h, a[0], "fd", 0))
        && (out = take(&h, a[1], FMT(x), 1)) && (idx = take(&h, a[2], "q", 1))
        && image(x, SHAPE(x)) && SHAPE(x)[2] % k == 0 && SHAPE(x)[3] % k == 0
        && contiguous(out) && SIZE(out) == SIZE(x) / (k * k)
        && contiguous(idx) && SIZE(idx) == SIZE(out);
    if (ok)
        RUN(ok, x, maxpool_fwd, BUF(x), BUF(out), BUF(idx), DIMS(x), S3(x), k);
    return finish(&h, ok);
}

static PyObject *run_maxpool_bwd(PyObject *m, PyObject *const *a,
                                 Py_ssize_t nargs) {
    long k;
    HOLD(h);
    operand *grad, *idx, *gx;
    if (!arity("maxpool_bwd", nargs, 4) || !longs(a + 3, 1, &k)) return NULL;
    int ok = k >= 1 && (gx = take(&h, a[2], "fd", 1))
        && (grad = take(&h, a[0], FMT(gx), 0)) && (idx = take(&h, a[1], "q", 0))
        && image(gx, SHAPE(gx)) && SHAPE(gx)[2] % k == 0 && SHAPE(gx)[3] % k == 0;
    if (ok) {
        Py_ssize_t pooled[4] = {SHAPE(gx)[0], SHAPE(gx)[1], SHAPE(gx)[2] / k,
                                SHAPE(gx)[3] / k};
        ok = image(grad, pooled) && shaped(&idx->view, 4, pooled)
            && contiguous(idx);
    }
    if (ok)
        RUN(ok, gx, maxpool_bwd, BUF(grad), BUF(idx), BUF(gx), DIMS(gx),
            S3(grad), S3(gx), k);
    return finish(&h, ok);
}

/* The flat loops: non-empty input for fake-quant, whose range needs an
   element, and dense operands laid out alike. */
static PyObject *run_fake_quant(PyObject *m, PyObject *const *a,
                                Py_ssize_t nargs) {
    long bits;
    HOLD(h);
    operand *x, *out;
    if (!arity("fake_quant", nargs, 3) || !longs(a + 2, 1, &bits)) return NULL;
    int ok = bits >= 1 && bits <= 62 && (x = take(&h, a[0], "fd", 0))
        && (out = take(&h, a[1], FMT(x), 1)) && x->view.len && alike(&h);
    if (ok) RUN(ok, x, fake_quant, BUF(x), BUF(out), SIZE(x), bits);
    return finish(&h, ok);
}

static PyObject *run_adam_update(PyObject *m, PyObject *const *a,
                                 Py_ssize_t nargs) {
    double f[7];  /* lr, beta1, beta2, eps, weight_decay, bias1, bias2 */
    HOLD(h);
    if (!arity("adam_update", nargs, 12)) return NULL;
    for (int i = 0; i < 7; i++)
        if ((f[i] = PyFloat_AsDouble(a[5 + i])) == -1.0 && PyErr_Occurred())
            return NULL;
    operand *p = take(&h, a[0], "fd", 0);
    int ok = p != NULL;
    for (int i = 1; ok && i < 5; i++)  /* grad; then m, v, out, written */
        ok = take(&h, a[i], FMT(p), i > 1) != NULL;
    ok = ok && alike(&h);
    if (ok)
        RUN(ok, p, adam_update, BUF(p), BUF(&h.ops[1]), BUF(&h.ops[2]),
            BUF(&h.ops[3]), BUF(&h.ops[4]), SIZE(p), f[0], f[1], f[2],
            1.0 - f[1], 1.0 - f[2], f[3], f[4] != 0, f[4], f[5], f[6]);
    return finish(&h, ok);
}

/* Batchnorm's passes: images of one shape that the loops take, and
   per-channel vectors; a missing mask is None, and bn_grad_terms takes
   `masked` exactly when it takes `mask`. */
static PyObject *run_bn_centre(PyObject *m, PyObject *const *a,
                               Py_ssize_t nargs) {
    HOLD(h);
    operand *x, *mean, *cen, *sq;
    if (!arity("bn_centre", nargs, 4)) return NULL;
    int ok = (x = take(&h, a[0], "fd", 0)) && image(x, SHAPE(x))
        && vector(mean = take(&h, a[1], FMT(x), 0), SHAPE(x)[1])
        && image(cen = take(&h, a[2], FMT(x), 1), SHAPE(x))
        && image(sq = take(&h, a[3], FMT(x), 1), SHAPE(x))
        && !memcmp(sq->s, cen->s, sizeof cen->s);
    if (ok)
        RUN(ok, x, bn_centre, BUF(x), BUF(mean), BUF(cen), BUF(sq), DIMS(x),
            S3(x), S3(cen));
    return finish(&h, ok);
}

static PyObject *run_bn_normalize(PyObject *m, PyObject *const *a,
                                  Py_ssize_t nargs) {
    HOLD(h);
    operand *xh, *inv, *gamma, *beta, *out, *mask = &absent;
    if (!arity("bn_normalize", nargs, 6)) return NULL;
    int ok = (xh = take(&h, a[0], "fd", 1)) && image(xh, SHAPE(xh))
        && vector(inv = take(&h, a[1], FMT(xh), 0), SHAPE(xh)[1])
        && vector(gamma = take(&h, a[2], FMT(xh), 0), SHAPE(xh)[1])
        && vector(beta = take(&h, a[3], FMT(xh), 0), SHAPE(xh)[1])
        && image(out = take(&h, a[4], FMT(xh), 1), SHAPE(xh))
        && (a[5] == Py_None || image(mask = take(&h, a[5], "?", 1), SHAPE(xh)));
    if (ok)
        RUN(ok, xh, bn_normalize, BUF(xh), BUF(inv), BUF(gamma), BUF(beta),
            BUF(out), BUF(mask), DIMS(xh), S3(xh), S3(out), S3(mask));
    return finish(&h, ok);
}

static PyObject *run_bn_grad_terms(PyObject *m, PyObject *const *a,
                                   Py_ssize_t nargs) {
    HOLD(h);
    operand *grad, *xh, *prod, *mask = &absent, *masked = &absent;
    if (!arity("bn_grad_terms", nargs, 5)) return NULL;
    int ok = (a[1] == Py_None) == (a[3] == Py_None)
        && (xh = take(&h, a[2], "fd", 0)) && image(xh, SHAPE(xh))
        && image(grad = take(&h, a[0], FMT(xh), 0), SHAPE(xh))
        && image(prod = take(&h, a[4], FMT(xh), 1), SHAPE(xh))
        && (a[1] == Py_None
            || (image(mask = take(&h, a[1], "?", 0), SHAPE(xh))
                && image(masked = take(&h, a[3], FMT(xh), 1), SHAPE(xh))));
    if (ok)
        RUN(ok, xh, bn_grad_terms, BUF(grad), BUF(mask), BUF(xh), BUF(masked),
            BUF(prod), DIMS(xh), S3(grad), S3(mask), S3(xh), S3(masked),
            S3(prod));
    return finish(&h, ok);
}

static PyObject *run_bn_grad_input(PyObject *m, PyObject *const *a,
                                   Py_ssize_t nargs) {
    HOLD(h);
    operand *grad, *xh, *scale, *mean_dy, *mean_dy_xhat, *gx;
    if (!arity("bn_grad_input", nargs, 6)) return NULL;
    int ok = (xh = take(&h, a[1], "fd", 0)) && image(xh, SHAPE(xh))
        && image(grad = take(&h, a[0], FMT(xh), 0), SHAPE(xh))
        && vector(scale = take(&h, a[2], FMT(xh), 0), SHAPE(xh)[1])
        && vector(mean_dy = take(&h, a[3], FMT(xh), 0), SHAPE(xh)[1])
        && vector(mean_dy_xhat = take(&h, a[4], FMT(xh), 0), SHAPE(xh)[1])
        && image(gx = take(&h, a[5], FMT(xh), 1), SHAPE(xh));
    if (ok)
        RUN(ok, xh, bn_grad_input, BUF(grad), BUF(xh), BUF(scale),
            BUF(mean_dy), BUF(mean_dy_xhat), BUF(gx), DIMS(xh), S3(grad),
            S3(xh), S3(gx));
    return finish(&h, ok);
}

#define ENTRY(name, args) {#name, (PyCFunction) (void (*)(void)) run_##name, \
                           METH_FASTCALL, #name "(" args ") -> bool"}
static PyMethodDef entries[] = {
    ENTRY(im2col, "x, cols, kernel, stride, padding, out_h, out_w"),
    ENTRY(col2im, "cols, gx, kernel, stride, padding, out_h, out_w"),
    ENTRY(maxpool_fwd, "x, out, idx, k"),
    ENTRY(maxpool_bwd, "grad, idx, gx, k"),
    ENTRY(fake_quant, "x, out, bits"),
    ENTRY(adam_update, "param, grad, m, v, out, lr, beta1, beta2, eps, "
                       "weight_decay, bias1, bias2"),
    ENTRY(bn_centre, "x, mean, centered, sq"),
    ENTRY(bn_normalize, "x_hat, inv_std, gamma, beta, out, mask"),
    ENTRY(bn_grad_terms, "grad, mask, x_hat, masked, prod"),
    ENTRY(bn_grad_input, "grad, x_hat, scale, mean_dy, mean_dy_xhat, gx"),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef dispatch = {PyModuleDef_HEAD_INIT, .m_name = "$D",
                                      .m_size = -1, .m_methods = entries};

PyMODINIT_FUNC PyInit_$D(void) { return PyModule_Create(&dispatch); }
""")

# (C type, name suffix, math-function suffix, largest value) of each
# instance.
_FLOAT_TYPES = (("float", "f32", "f", "FLT_MAX"), ("double", "f64", "", "DBL_MAX"))
_SOURCE += "".join(source.substitute(T=t, S=s)
                   for source in (_CONV_SOURCE, _POOL_SOURCE)
                   for t, s, _, _ in _FLOAT_TYPES)
_SOURCE += _BN_WALK_SOURCE + """
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC push_options
#pragma GCC optimize ("fp-contract=off")
#endif
""" + "".join(_ARITH_SOURCE.substitute(T=t, S=s, M=m, L=largest)
              for t, s, m, largest in _FLOAT_TYPES) + \
    _DISPATCH_SOURCE.substitute(D=_DISPATCH) + """
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC pop_options
#endif
"""
# Part of the build's cache key: other flags compile other code.
# -fno-math-errno lets sqrt compile to its instruction, so the Adam
# loop vectorises; it changes no result.
_COMPILE_ARGS = ("-O3", "-march=native", "-funroll-loops", "-fno-math-errno")
# Also part of the key: without this macro cffi compiles against the
# limited API, which hides Py_buffer and METH_FASTCALL.
_MACROS = (("_CFFI_NO_LIMITED_API", None),)
_LIBRARIES = ("m",)

# The kernels' names: each is an entry point of the dispatch module.
_WRAPPERS = ("im2col", "col2im", "maxpool_fwd", "maxpool_bwd", "fake_quant",
             "adam_update", "bn_centre", "bn_normalize", "bn_grad_terms",
             "bn_grad_input")


def _cache_dir() -> str:
    root = os.environ.get("REPRO_CKERNEL_CACHE")
    if not root:
        root = os.path.join(os.path.expanduser("~"), ".cache", "repro-ckernels")
    return root


def _build_path() -> tuple[str, str]:
    """``(module name, shared-object path)`` of this source under these flags."""
    import sysconfig

    build = repr((_SOURCE, _COMPILE_ARGS, _MACROS, _LIBRARIES))
    digest = hashlib.sha256(build.encode()).hexdigest()[:16]
    modname = f"_repro_ck_{digest}"
    return modname, os.path.join(_cache_dir(), digest,
                                 modname + sysconfig.get_config_var("EXT_SUFFIX"))


def _load():
    """Import the dispatch module, building and publishing it on a cache miss."""
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
            ffi.set_source(
                modname,
                _SOURCE,
                define_macros=list(_MACROS),
                extra_compile_args=list(_COMPILE_ARGS),
                libraries=list(_LIBRARIES),
            )
            os.replace(ffi.compile(tmpdir=tmpdir, verbose=False), sofile)
        finally:
            shutil.rmtree(tmpdir, ignore_errors=True)
    # cffi's own module in the shared object is never imported: the
    # dispatch module sits beside it under its own init function.
    spec = importlib.util.spec_from_file_location(_DISPATCH, sofile)
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
            table = {name: getattr(module, name) for name in _WRAPPERS}
        except Exception:  # no cffi / no compiler / broken build or module
            table = {}
        _KERNELS = table
    return _KERNELS


def get_kernel(name: str):
    """Return the C kernel ``name``, or None when unavailable."""
    return kernels().get(name)
