"""Network architectures evaluated in the paper (VGG19, ResNet18).

Models are built from :class:`~repro.models.blocks.ConvUnit` /
:class:`~repro.models.blocks.LinearUnit` blocks whose outputs end in
the one instrumentation tail the AD-quantization algorithm needs
(:class:`~repro.models.blocks.LayerOutput`): a channel-pruning mask, an
activation fake-quant slot, and an activation-density meter.  Every
model exposes an ordered ``layer_handles()`` registry mapping onto the
paper's "layers l = 1..L" (first and last layers are marked frozen;
ResNet downsample convs follow their destination layer's bit-width per
Fig. 2); only the registry's layers carry meters.
"""

from repro.models.blocks import ConvUnit, LinearUnit, MeasurementContext
from repro.models.registry import LayerHandle, LayerRegistry
from repro.models.vgg import VGG, vgg11, vgg16, vgg19
from repro.models.resnet import BasicBlock, ResNet, resnet18

__all__ = [
    "MeasurementContext",
    "ConvUnit",
    "LinearUnit",
    "LayerHandle",
    "LayerRegistry",
    "VGG",
    "vgg11",
    "vgg16",
    "vgg19",
    "ResNet",
    "BasicBlock",
    "resnet18",
]
