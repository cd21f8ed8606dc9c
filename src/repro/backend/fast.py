"""The ``fast`` backend: the shared kernels in float32.

``FastBackend`` declares its dtype and nothing else: it runs every
kernel :class:`~repro.backend.base.ArrayBackend` holds — the seed's
op sequences, in float32 — and, where the compiled tier loads and takes
the operands, the float32 instances of the C loops in
:mod:`repro.backend._ckernels`: the conv lowering, max pooling,
fake-quant, Adam and training-mode batchnorm's elementwise passes.  The
reference backend runs the float64 instances of the same loops.

Its speed comes from the dtype: float32 halves the memory traffic and
puts every ``@`` on BLAS sgemm.  Its results differ from the reference
backend's by float32 round-off, which the differential suite bounds op
by op, and they do not depend on the host's kernel tier: each C loop
returns its numpy chain's bytes, so a run with the C tier and one
without give the same bytes.
"""

from __future__ import annotations

import numpy as np

from repro.backend.base import ArrayBackend


class FastBackend(ArrayBackend):
    """float32 engine: the shared kernels in single precision."""

    name = "fast"
    dtype = np.dtype(np.float32)
