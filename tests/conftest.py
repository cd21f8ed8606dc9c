"""Shared fixtures: deterministic RNGs, tiny datasets and models."""

import numpy as np
import pytest

from repro.data import ArrayDataset, DataLoader
from repro.models import resnet18, vgg11


@pytest.fixture(autouse=True)
def _reset_backend():
    """Restore the reference backend after every test.

    ``build_context`` / ``Experiment.run`` activate the config's backend
    process-wide; a test that ran something on the fast backend must not
    leak float32 array creation into the next test.
    """
    yield
    from repro.backend import set_active_backend

    set_active_backend("reference")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_dataset(rng):
    """16-sample, 4-class, 3x8x8 structured dataset."""
    images = rng.normal(size=(16, 3, 8, 8))
    labels = np.repeat(np.arange(4), 4)
    return ArrayDataset(images, labels)


@pytest.fixture
def tiny_loader(tiny_dataset, rng):
    return DataLoader(tiny_dataset, batch_size=8, shuffle=True, rng=rng)


@pytest.fixture
def micro_vgg(rng):
    """Narrow VGG11 on 8x8 inputs — fast enough for unit tests."""
    return vgg11(num_classes=4, width_multiplier=0.0625, image_size=8, rng=rng)


@pytest.fixture
def micro_resnet(rng):
    """Narrow ResNet18 — used where skip-connection wiring matters."""
    return resnet18(num_classes=4, width_multiplier=0.0625, rng=rng)
