"""Datasets and loading utilities.

The paper evaluates on CIFAR-10, CIFAR-100 and TinyImageNet.  Those
datasets cannot be downloaded in this offline environment, so this
package provides deterministic *synthetic* stand-ins with the same
shapes and class counts (the README's "Scale and substitutions" gives
the rationale): class-conditional structured images on which ReLU networks
exhibit the same qualitative activation-density dynamics the method
relies on.
"""

from repro.data.datasets import ArrayDataset, DataLoader, Dataset
from repro.data.synthetic import (
    SyntheticCIFAR10,
    SyntheticCIFAR100,
    SyntheticTinyImageNet,
    make_classification_images,
)

__all__ = [
    "Dataset",
    "ArrayDataset",
    "DataLoader",
    "make_classification_images",
    "SyntheticCIFAR10",
    "SyntheticCIFAR100",
    "SyntheticTinyImageNet",
]
