"""Neural-network library built on :mod:`repro.autograd`.

Provides what the VGG19/ResNet18 models train with: the module system
(parameter registration, train/eval modes, state dicts), conv, linear,
batchnorm, max and global-average pooling, Kaiming-normal
initialization, the cross-entropy loss, and the optimizers (Adam — the
paper trains with Adam under standard settings — and SGD with momentum).
"""

from repro.nn.module import Module, Parameter, ModuleList
from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
)
from repro.nn.loss import CrossEntropyLoss
from repro.nn.optim import SGD, Adam
from repro.nn import init

__all__ = [
    "Module",
    "Parameter",
    "ModuleList",
    "Conv2d",
    "Linear",
    "BatchNorm2d",
    "MaxPool2d",
    "GlobalAvgPool2d",
    "CrossEntropyLoss",
    "SGD",
    "Adam",
    "init",
]
