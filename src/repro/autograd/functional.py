"""Cross-entropy, the one composite loss the models train with.

A numerically stable log-softmax + NLL, recorded as one graph node that
dispatches to the active backend's fused forward/backward kernels.  The
kernels save only the minimal backward residual: the log-probabilities,
from which backward recomputes ``exp`` instead of pinning the softmax
matrix inside the closure for the graph's lifetime (the release test
in ``tests/test_backend_fused.py`` guards it).
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor
from repro.backend import active_backend


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy between ``logits`` (N, K) and integer ``targets`` (N,).

    Fused log-softmax + NLL with the standard ``softmax - onehot`` gradient.
    """
    targets = np.asarray(targets)
    if targets.ndim != 1:
        raise ValueError("targets must be a 1-D array of class indices")
    n = logits.data.shape[0]
    if targets.shape[0] != n:
        raise ValueError("batch size mismatch between logits and targets")

    backend = active_backend()
    loss, log_probs = backend.cross_entropy_fwd(logits.data, targets)

    def backward(grad):
        return (backend.cross_entropy_bwd(grad, log_probs, targets),)

    return Tensor.from_op(loss, (logits,), backward, "cross_entropy")
