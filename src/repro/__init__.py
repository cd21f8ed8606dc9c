"""repro — Activation Density based Mixed-Precision Quantization.

From-scratch reproduction of Vasquez, Venkatesha et al., DATE 2021
(arXiv:2101.04354).  Subpackages:

=============  =========================================================
`api`          declarative configs, pipeline stages, experiment registry
`orchestration`  sweeps, parallel workers, result cache, checkpoint/resume
`autograd`     numpy reverse-mode autodiff (Tensor, conv2d, grad_check)
`nn`           layers, optimizers, losses, module system
`models`       instrumented VGG11/16/19 and ResNet18
`quant`        eqn-1 quantizer, STE fake-quant, plans, hw snapping
`density`      AD metric (eqn 2), monitoring, saturation detection
`core`         Algorithm 1, AD pruning (eqn 5), eqn-4 complexity, reports
`energy`       analytical energy model (Table I)
`pim`          functional PIM accelerator + Table IV energy model
`data`         synthetic CIFAR/TinyImageNet stand-ins, loaders
`utils`        checkpoints, JSON/table helpers
`cli`          the ``repro`` / ``python -m repro`` console entry point
=============  =========================================================

The library entry point:

>>> from repro.api import experiments
>>> report = experiments.build("vgg19-cifar10-quant").run()
"""

__version__ = "1.1.0"

__all__ = [
    "api",
    "autograd",
    "nn",
    "models",
    "quant",
    "density",
    "core",
    "energy",
    "pim",
    "data",
    "utils",
]
