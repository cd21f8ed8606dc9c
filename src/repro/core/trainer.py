"""Quantization-aware training loop with activation-density collection.

The trainer runs standard minibatch SGD/Adam epochs.  While training,
the model's density meters accumulate AD statistics from the actual
training forward passes (the paper "monitors the activation density
AD_l for all the layers" during training); at the end of each epoch the
per-layer densities are recorded into a
:class:`~repro.density.monitor.DensityMonitor` and the meters reset.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.autograd import Tensor, no_grad
from repro.density import DensityMonitor


@dataclass
class EpochStats:
    """Summary of one training epoch."""

    epoch: int
    loss: float
    accuracy: float
    densities: dict[str, float] = field(default_factory=dict)


class Trainer:
    """Minibatch trainer bound to a model with a layer registry.

    Parameters
    ----------
    model:
        A :class:`~repro.models.vgg.VGG` / ResNet (anything exposing
        ``layer_handles()`` and a ``ctx`` measurement context).
    optimizer / loss_fn:
        Optimization objects from :mod:`repro.nn`.
    collect_density:
        When True (default) density meters run during training forwards.
    """

    def __init__(self, model, optimizer, loss_fn, collect_density: bool = True):
        self.model = model
        self.optimizer = optimizer
        self.loss_fn = loss_fn
        self.collect_density = collect_density
        self.registry = model.layer_handles()
        self.monitor = DensityMonitor(self.registry.names())
        self.epochs_completed = 0
        self.history: list[EpochStats] = []

    # ------------------------------------------------------------------
    def _reset_meters(self) -> None:
        for handle in self.registry:
            handle.meter.reset()

    def _snapshot_densities(self) -> dict[str, float]:
        # Disabled (removed) layers have empty meters; their density is
        # reported as 0.0 — they produce no activations at all.
        return {
            h.name: (h.meter.density() if h.meter.count else 0.0)
            for h in self.registry
        }

    # ------------------------------------------------------------------
    def train_epoch(self, loader) -> EpochStats:
        """Run one epoch; returns loss/accuracy/AD stats."""
        self.model.train()
        self._reset_meters()
        self.model.ctx.enabled = self.collect_density
        total_loss = 0.0
        correct = 0
        seen = 0
        try:
            for images, labels in loader:
                self.optimizer.zero_grad()
                logits = self.model(Tensor(images))
                loss = self.loss_fn(logits, labels)
                loss.backward()
                self.optimizer.step()
                batch = len(labels)
                total_loss += loss.item() * batch
                correct += int((logits.data.argmax(axis=1) == labels).sum())
                seen += batch
        finally:
            self.model.ctx.enabled = False
        if seen == 0:
            raise RuntimeError("training loader yielded no batches")
        densities = self._snapshot_densities() if self.collect_density else {}
        if self.collect_density:
            self.monitor.record(densities)
        stats = EpochStats(
            epoch=self.epochs_completed,
            loss=total_loss / seen,
            accuracy=correct / seen,
            densities=densities,
        )
        self.epochs_completed += 1
        self.history.append(stats)
        return stats

    def fit(self, loader, epochs: int) -> list[EpochStats]:
        """Train for a fixed number of epochs."""
        return [self.train_epoch(loader) for _ in range(epochs)]

    # ------------------------------------------------------------------
    def evaluate(self, loader) -> float:
        """Top-1 accuracy on ``loader`` (eval mode, no gradient tape)."""
        self.model.eval()
        correct = 0
        seen = 0
        with no_grad():
            for images, labels in loader:
                logits = self.model(Tensor(images))
                correct += int((logits.data.argmax(axis=1) == labels).sum())
                seen += len(labels)
        self.model.train()
        if seen == 0:
            raise RuntimeError("evaluation loader yielded no batches")
        return correct / seen

    def measure_density(self, loader, max_batches: int | None = None) -> dict[str, float]:
        """Explicit AD sweep: forward the loader with meters enabled.

        Uses eval mode (frozen BN statistics) and no gradient recording;
        suitable for one-shot measurements outside the training loop.
        """
        self.model.eval()
        self._reset_meters()
        self.model.ctx.enabled = True
        try:
            with no_grad():
                for batch_index, (images, _) in enumerate(loader):
                    if max_batches is not None and batch_index >= max_batches:
                        break
                    self.model(Tensor(images))
        finally:
            self.model.ctx.enabled = False
            self.model.train()
        return self._snapshot_densities()

    def layer_activation_counts(self) -> dict[str, int]:
        """Per-layer activation counts from the most recent meter pass."""
        return {h.name: h.meter.count for h in self.registry}
