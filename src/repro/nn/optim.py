"""Optimizers.

The paper trains with "Adam optimizer under standard settings"; SGD with
momentum is provided as well for baselines and tests.
"""

from __future__ import annotations

import numpy as np

from repro.backend import active_backend
from repro.nn.module import Parameter


class Optimizer:
    """Base optimizer over an explicit parameter list."""

    def __init__(self, parameters, lr: float):
        self.parameters: list[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Checkpointing: slot arrays + scalar state, both keyed by name so
    # they can ride in an ``.npz`` checkpoint next to the model state.
    # ------------------------------------------------------------------
    def state_arrays(self) -> dict[str, np.ndarray]:
        """Per-parameter slot arrays (momentum/moment buffers)."""
        return {}

    def state_meta(self) -> dict:
        """JSON-serializable scalar state (step counters etc.)."""
        return {}

    def load_state(self, arrays: dict[str, np.ndarray], meta: dict) -> None:
        """Restore :meth:`state_arrays` / :meth:`state_meta` output."""

    def _load_slots(self, slots: dict[str, list], arrays: dict) -> None:
        for slot, buffers in slots.items():
            for index, buffer in enumerate(buffers):
                key = f"{slot}.{index}"
                if key not in arrays:
                    raise KeyError(f"optimizer state missing {key!r}")
                value = np.asarray(arrays[key])
                if value.shape != buffer.shape:
                    raise ValueError(
                        f"optimizer slot {key!r} shape mismatch: "
                        f"{buffer.shape} vs {value.shape}"
                    )
                buffer[...] = value


class SGD(Optimizer):
    """Stochastic gradient descent with momentum and weight decay."""

    def __init__(self, parameters, lr: float, momentum: float = 0.0, weight_decay: float = 0.0):
        super().__init__(parameters, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        backend = active_backend()
        for param, velocity in zip(self.parameters, self._velocity):
            if param.grad is None:
                continue
            param.data = backend.sgd_update(
                param.data,
                param.grad,
                velocity,
                self.lr,
                self.momentum,
                self.weight_decay,
            )

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {f"velocity.{i}": v for i, v in enumerate(self._velocity)}

    def load_state(self, arrays, meta) -> None:
        self._load_slots({"velocity": self._velocity}, arrays)


class Adam(Optimizer):
    """Adam with bias correction (the paper's training optimizer)."""

    def __init__(
        self,
        parameters,
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        backend = active_backend()
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            backend.adam_update(
                param.data,
                param.grad,
                m,
                v,
                self.lr,
                self.beta1,
                self.beta2,
                self.eps,
                self.weight_decay,
                bias1,
                bias2,
            )

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {f"m.{i}": m for i, m in enumerate(self._m)}
        out.update({f"v.{i}": v for i, v in enumerate(self._v)})
        return out

    def state_meta(self) -> dict:
        return {"step_count": self._step_count}

    def load_state(self, arrays, meta) -> None:
        self._load_slots({"m": self._m, "v": self._v}, arrays)
        self._step_count = int(meta.get("step_count", 0))
