"""The ``reference`` backend: the seed's float64 semantics, bit-for-bit.

The contract: every kernel this backend runs — all of them inherited
from :class:`~repro.backend.base.ArrayBackend`, the conv lowering
included — returns the same bytes *and* the same strides as the engine
did before the backend seam existed, at a fixed BLAS thread count: the
BLAS splits a GEMM's sums differently for another count, so a run's
final parameters can differ in their last bits between thread counts
(its report and cache key do not move).  Floating-point results are
deterministic given identical operands in identical order, and layout
counts: a GEMM over a transposed operand, or a numpy sum over a
differently ordered array, may round its last bit differently.  A
faster kernel is welcome here only if it keeps that contract.

Five chains run compiled where the C tier loads and can take the
operands (the float64 instances of :mod:`repro.backend._ckernels`,
whose float32 instances the fast backend runs), and as the seed's numpy
code otherwise:

* the conv lowering — im2col/col2im;
* max pooling — the window maxima and argmax taps, and their adjoint;
* eqn.-1 fake quantization — one pass that finds the range, then one
  loop over clip, shift, scale, round, rescale and shift back, for a
  dynamic quantizer over finite input whose range is non-degenerate;
* the Adam update — one loop writing a fresh parameter and updating
  ``m``/``v`` in place, for dense operands laid out alike;
* training-mode batchnorm, forward and backward — two loops per
  direction over the elementwise passes between the chain's sums.

They keep the seed's bytes because each loop runs the seed's numpy ops
in the seed's order, with every multiply and add rounded on its own
(the build forbids contracting them into FMAs), and because the parts
numpy computes with its own algorithms stay in numpy: every sum is a
numpy call.  Fake-quant's range is a minimum and a maximum, which are
exact in any order; the C pass finds numpy's ``x.min()``/``x.max()``
but for the sign of a zero extreme, on which no output byte depends.
Max pooling's tie and NaN rule is numpy argmax's, which the kernel
copies rather than calls.  numpy's sums block by the memory order
of their operand, so each array a loop writes for a later sum is laid
out as numpy's own ufunc would have laid it out (see
``base._product_like``), and every output keeps the seed's strides.
Eval-mode batchnorm, another dtype, negative or broadcast strides and
rows that are not contiguous (an F-ordered image) take the numpy chain.
So a run's bytes do not depend on the host's kernel tier.  The tests
that pin it compare against test-local copies of the seed code:
``tests/test_backend_conv_lowering.py`` (im2col/col2im on both tiers,
conv2d, whole runs with and without the C kernels),
``tests/test_backend_reference_kernels.py`` (fake-quant, Adam,
batchnorm and max pooling on both tiers), ``tests/test_backend_fused.py``
(the fused elementwise chains and whole training steps) and the
regression suites.
"""

from __future__ import annotations

import numpy as np

from repro.backend.base import ArrayBackend


class ReferenceBackend(ArrayBackend):
    """float64 engine with the seed's numerics."""

    name = "reference"
    dtype = np.dtype(np.float64)
