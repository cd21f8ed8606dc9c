"""Instrumented building blocks shared by VGG and ResNet.

Every module that emits a layer's output activations is a
:class:`LayerOutput` and ends its forward in :meth:`LayerOutput.emit`,
the one output tail the reproduction needs:

* ``channel_mask`` — a 0/1 per-output-channel mask implementing AD-based
  channel pruning (eqn. 5) as structured masking; masked channels emit
  exactly zero and receive no gradient signal;
* ``act_quant`` — a :class:`~repro.quant.fakequant.FakeQuantize` applied
  to the output activations (paper: both weights and activations of
  layer *l* are quantized to ``k_l`` bits);
* ``meter`` — an :class:`~repro.density.meter.ActivationDensityMeter`
  fed with the post-ReLU output whenever the shared
  :class:`MeasurementContext` is enabled.  It stays None until a
  :class:`~repro.models.registry.LayerRegistry` names the module a
  layer's host, so only registry layers are measured.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor
from repro.backend import active_backend
from repro.density import ActivationDensityMeter
from repro.nn import BatchNorm2d, Conv2d, Linear, Module
from repro.quant import FakeQuantize


class MeasurementContext:
    """Shared switch that turns density measurement on during AD sweeps."""

    def __init__(self):
        self.enabled = False

    def __repr__(self) -> str:
        return f"MeasurementContext(enabled={self.enabled})"


class LayerOutput(Module):
    """A module emitting one layer's output: mask -> fake-quant -> meter.

    Conv-shaped outputs register a ``channel_mask`` buffer of
    ``out_channels`` ones; a module without one is never pruned.
    """

    channel_mask: np.ndarray | None = None

    def __init__(self, name: str, ctx: MeasurementContext):
        super().__init__()
        self.name = name
        self.ctx = ctx
        self.act_quant: FakeQuantize | None = None
        self.meter: ActivationDensityMeter | None = None

    def active_channels(self) -> int:
        """Number of unpruned output channels."""
        return int(self.channel_mask.sum())

    def set_channel_mask(self, mask: np.ndarray) -> None:
        mask = active_backend().asarray(np.asarray(mask))
        if mask.shape != (self.out_channels,):
            raise ValueError("mask shape must equal (out_channels,)")
        if not np.all((mask == 0) | (mask == 1)):
            raise ValueError("mask entries must be 0 or 1")
        if mask.sum() < 1:
            raise ValueError("at least one channel must remain active")
        self._set_buffer("channel_mask", mask)

    def emit(self, out: Tensor) -> Tensor:
        """The layer-output tail every forward ends in."""
        mask = self.channel_mask
        pruned = mask is not None and not np.all(mask == 1.0)
        if pruned:
            out = out * Tensor(mask.reshape(1, -1, 1, 1))
        if self.act_quant is not None:
            out = self.act_quant(out)
        if self.meter is not None and self.ctx.enabled:
            # AD quantifies utilization of the *surviving* channels;
            # masked channels are structurally zero, not "inactive".
            self.meter.update(out.data[:, np.flatnonzero(mask)] if pruned else out.data)
        return out


class ConvUnit(LayerOutput):
    """conv -> [batchnorm] -> [ReLU] -> the :class:`LayerOutput` tail.

    Parameters
    ----------
    name:
        Registry name.
    ctx:
        Shared measurement context.
    batch_norm / relu:
        Structural switches (ResNet applies the block's second ReLU
        after the residual add, outside this unit).
    """

    def __init__(
        self,
        name: str,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        ctx: MeasurementContext,
        stride: int = 1,
        padding: int = 0,
        batch_norm: bool = True,
        relu: bool = True,
        bias: bool | None = None,
        rng: np.random.Generator | None = None,
    ):
        super().__init__(name, ctx)
        self.use_relu = relu
        if bias is None:
            bias = not batch_norm
        self.conv = Conv2d(
            in_channels,
            out_channels,
            kernel_size,
            stride=stride,
            padding=padding,
            bias=bias,
            rng=rng,
        )
        self.bn = BatchNorm2d(out_channels) if batch_norm else None
        self.register_buffer("channel_mask", active_backend().ones(out_channels))
        self.enabled = True  # iteration 2a of Table II removes a layer
        # Geometry captured on forward, consumed by the energy models.
        self.last_input_hw: tuple[int, int] | None = None
        self.last_output_hw: tuple[int, int] | None = None

    # ------------------------------------------------------------------
    @property
    def out_channels(self) -> int:
        return self.conv.out_channels

    def set_weight_quant(self, fake_quant: FakeQuantize | None) -> None:
        self.conv.weight_fake_quant = fake_quant

    # ------------------------------------------------------------------
    def forward(self, x: Tensor) -> Tensor:
        if not self.enabled:
            return x
        self.last_input_hw = (x.data.shape[2], x.data.shape[3])
        out = self.conv(x)
        if self.bn is not None:
            # bn -> relu collapses into one fused graph node (one fused
            # backward, no post-bn temporary).
            out = self.bn.forward_fused(out, fuse_relu=self.use_relu)
        elif self.use_relu:
            out = out.relu()
        out = self.emit(out)
        self.last_output_hw = (out.data.shape[2], out.data.shape[3])
        return out

    def __repr__(self) -> str:
        bits = self.act_quant.bits if self.act_quant and self.act_quant.enabled else "fp"
        return (
            f"ConvUnit({self.name}: {self.conv.in_channels}->"
            f"{self.conv.out_channels}, bits={bits}, "
            f"active={self.active_channels()}/{self.out_channels})"
        )


class LinearUnit(LayerOutput):
    """linear -> [ReLU] -> the :class:`LayerOutput` tail (never masked)."""

    def __init__(
        self,
        name: str,
        in_features: int,
        out_features: int,
        ctx: MeasurementContext,
        relu: bool = False,
        rng: np.random.Generator | None = None,
    ):
        super().__init__(name, ctx)
        self.use_relu = relu
        self.fc = Linear(in_features, out_features, rng=rng)

    def set_weight_quant(self, fake_quant: FakeQuantize | None) -> None:
        self.fc.weight_fake_quant = fake_quant

    def forward(self, x: Tensor) -> Tensor:
        out = self.fc(x)
        if self.use_relu:
            out = out.relu()
        return self.emit(out)

    def __repr__(self) -> str:
        bits = self.act_quant.bits if self.act_quant and self.act_quant.enabled else "fp"
        return f"LinearUnit({self.name}: {self.fc.in_features}->{self.fc.out_features}, bits={bits})"
