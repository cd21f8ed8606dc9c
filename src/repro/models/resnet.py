"""ResNet18 (CIFAR variant) with skip-connection quantization (Fig. 2).

Topology: 3x3/64 stem conv, four stages of two BasicBlocks
([64, 128, 256, 512] channels, stride 2 entering stages 2-4), global
average pooling, one FC classifier.  That yields the 18 weighted layers
(stem + 16 block convs + FC) the Table II(b)/(c) bit-width vectors
describe; downsample (1x1 projection) convs in skip branches are not
independent layers — per the paper, their precision equals that of the
destination layer, which :class:`~repro.models.registry.LayerHandle`
enforces through the follower mechanism.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor
from repro.backend import active_backend
from repro.autograd.conv import global_avg_pool2d
from repro.models.blocks import ConvUnit, LayerOutput, LinearUnit, MeasurementContext
from repro.models.registry import LayerHandle, LayerRegistry
from repro.nn import Module, ModuleList
from repro.quant import FakeQuantize


class BasicBlock(LayerOutput):
    """Two 3x3 convs with a residual connection.

    The second conv's "layer output" is the post-add ReLU, so this block
    is that layer's :class:`~repro.models.blocks.LayerOutput`: its tail
    carries the activation quantizer, density meter and pruning mask.
    The skip branch's activations pass through ``skip_quant``, which
    Algorithm 1 keeps synchronized with the destination layer's
    bit-width (Fig. 2), as does the downsample conv's weight quantizer.
    """

    def __init__(
        self,
        name: str,
        in_channels: int,
        out_channels: int,
        ctx: MeasurementContext,
        stride: int = 1,
        rng: np.random.Generator | None = None,
    ):
        super().__init__(name, ctx)
        self.unit1 = ConvUnit(
            f"{name}.conv1", in_channels, out_channels, 3, ctx,
            stride=stride, padding=1, relu=True, rng=rng,
        )
        # The pre-add output is not a registry layer: this block's tail
        # (post-add ReLU) is the layer output the registry measures.
        self.unit2 = ConvUnit(
            f"{name}.conv2_preadd", out_channels, out_channels, 3, ctx,
            stride=1, padding=1, relu=False, rng=rng,
        )
        if stride != 1 or in_channels != out_channels:
            self.downsample = ConvUnit(
                f"{name}.downsample", in_channels, out_channels, 1, ctx,
                stride=stride, padding=0, relu=False, rng=rng,
            )
        else:
            self.downsample = None
        # Skip-branch activation quantizer (destination layer's bits).
        self.skip_quant = FakeQuantize(16, enabled=False)
        self.register_buffer("channel_mask", active_backend().ones(out_channels))

    @property
    def out_channels(self) -> int:
        return self.unit2.out_channels

    # ------------------------------------------------------------------
    def forward(self, x: Tensor) -> Tensor:
        out = self.unit1(x)
        out = self.unit2(out)
        skip = self.downsample(x) if self.downsample is not None else x
        if self.skip_quant.enabled:
            skip = self.skip_quant(skip)
        return self.emit((out + skip).relu())

    def __repr__(self) -> str:
        return (
            f"BasicBlock({self.name}: {self.unit1.conv.in_channels}->"
            f"{self.out_channels}, stride={self.unit1.conv.stride})"
        )


class ResNet(Module):
    """CIFAR-style ResNet built from BasicBlocks.

    Parameters
    ----------
    blocks_per_stage:
        Block counts for the four stages ([2, 2, 2, 2] = ResNet18).
    width_multiplier:
        Scales all channel widths (1.0 = paper-size model).
    """

    def __init__(
        self,
        blocks_per_stage: list[int],
        num_classes: int = 10,
        width_multiplier: float = 1.0,
        in_channels: int = 3,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if len(blocks_per_stage) != 4:
            raise ValueError("expected 4 stages")
        rng = rng or np.random.default_rng()
        self.ctx = MeasurementContext()
        self.num_classes = num_classes

        def scaled(c: int) -> int:
            return max(1, int(round(c * width_multiplier)))

        widths = [scaled(c) for c in (64, 128, 256, 512)]
        handles: list[LayerHandle] = []

        self.stem = ConvUnit(
            "conv1", in_channels, widths[0], 3, self.ctx, padding=1, rng=rng
        )
        handles.append(LayerHandle("conv1", self.stem, role="first", prunable=False))

        blocks: list[BasicBlock] = []
        current = widths[0]
        block_index = 0
        for stage, (width, count) in enumerate(zip(widths, blocks_per_stage)):
            for b in range(count):
                stride = 2 if (stage > 0 and b == 0) else 1
                block_index += 1
                block = BasicBlock(
                    f"block{block_index}", current, width, self.ctx,
                    stride=stride, rng=rng,
                )
                blocks.append(block)
                handles.append(
                    LayerHandle(f"block{block_index}.conv1", block.unit1, role="hidden")
                )
                followers = [block.downsample] if block.downsample is not None else []
                handles.append(
                    LayerHandle(
                        f"block{block_index}.conv2",
                        block.unit2,
                        role="hidden",
                        host=block,
                        follower_units=followers,
                        follower_quants=[block.skip_quant],
                    )
                )
                current = width
        self.blocks = ModuleList(blocks)
        self.classifier = LinearUnit("fc", current, num_classes, ctx=self.ctx, rng=rng)
        handles.append(LayerHandle("fc", self.classifier, role="last", prunable=False))
        self._registry = LayerRegistry(handles)

    def layer_handles(self) -> LayerRegistry:
        return self._registry

    def forward(self, x: Tensor) -> Tensor:
        x = self.stem(x)
        for block in self.blocks:
            x = block(x)
        x = global_avg_pool2d(x)
        x = x.flatten_from(1)
        return self.classifier(x)


def resnet18(
    num_classes: int = 10,
    width_multiplier: float = 1.0,
    rng: np.random.Generator | None = None,
) -> ResNet:
    """ResNet18: [2, 2, 2, 2] BasicBlocks — Table II(b)/(c) architecture."""
    return ResNet([2, 2, 2, 2], num_classes, width_multiplier, rng=rng)
