"""Loss functions."""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor
from repro.autograd import functional as F
from repro.backend import active_backend
from repro.nn.module import Module


class CrossEntropyLoss(Module):
    """Mean cross-entropy over integer class targets (fused log-softmax)."""

    def forward(self, logits: Tensor, targets: np.ndarray) -> Tensor:
        return F.cross_entropy(logits, targets)

    def __repr__(self) -> str:
        return "CrossEntropyLoss()"


class MSELoss(Module):
    """Mean squared error between a tensor and an array-like target."""

    def forward(self, prediction: Tensor, target) -> Tensor:
        target = target if isinstance(target, Tensor) else Tensor(target)
        if prediction.data.shape == target.data.shape:
            backend = active_backend()
            loss, residual = backend.mse_fwd(prediction.data, target.data)
            needs_target_grad = target.requires_grad

            def backward(grad):
                gp = backend.mse_bwd(grad, residual)
                return (gp, -gp if needs_target_grad else None)

            return Tensor.from_op(loss, (prediction, target), backward, "mse")
        diff = prediction - target
        return (diff * diff).mean()

    def __repr__(self) -> str:
        return "MSELoss()"
