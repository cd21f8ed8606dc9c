"""The cross-entropy loss the models train with."""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor
from repro.autograd import functional as F
from repro.nn.module import Module


class CrossEntropyLoss(Module):
    """Mean cross-entropy over integer class targets (fused log-softmax)."""

    def forward(self, logits: Tensor, targets: np.ndarray) -> Tensor:
        return F.cross_entropy(logits, targets)

    def __repr__(self) -> str:
        return "CrossEntropyLoss()"
