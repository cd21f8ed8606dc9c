"""Deterministic synthetic image-classification datasets.

Substitute for CIFAR-10/CIFAR-100/TinyImageNet (no network access in the
reproduction environment).  Each class is defined by a smooth random
spatial template plus a class-specific sinusoidal frequency signature;
samples are noisy, randomly shifted renderings of their class pattern.
Training a ReLU conv net on these images reproduces the qualitative
behaviour the paper's method depends on: activation density stabilises
below 1.0 during training and responds to re-quantization.

All generation is a pure function of the seed.
"""

from __future__ import annotations

import numpy as np

from repro.data.datasets import ArrayDataset


def _smooth(field: np.ndarray, passes: int = 2) -> np.ndarray:
    """Cheap separable box smoothing (avoids a scipy dependency here)."""
    out = field
    for _ in range(passes):
        out = (
            out
            + np.roll(out, 1, axis=-1)
            + np.roll(out, -1, axis=-1)
            + np.roll(out, 1, axis=-2)
            + np.roll(out, -1, axis=-2)
        ) / 5.0
    return out


def _class_template(
    rng: np.random.Generator, channels: int, size: int
) -> np.ndarray:
    """Smooth low-frequency template + sinusoidal signature for one class."""
    template = _smooth(rng.normal(0.0, 1.0, size=(channels, size, size)), passes=3)
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    for c in range(channels):
        fx = rng.uniform(0.5, 3.0)
        fy = rng.uniform(0.5, 3.0)
        phase = rng.uniform(0.0, 2 * np.pi)
        template[c] += 0.8 * np.sin(
            2 * np.pi * (fx * xx + fy * yy) / size + phase
        )
    # Standardize each template so classes are equally "loud".
    template = (template - template.mean()) / (template.std() + 1e-8)
    return template


def make_classification_images(
    num_classes: int,
    samples_per_class: int,
    image_size: int = 32,
    channels: int = 3,
    noise: float = 0.6,
    max_shift: int = 2,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Generate a structured synthetic classification set.

    Returns
    -------
    (images, labels):
        images (N, C, H, W) float64 roughly zero-mean/unit-scale,
        labels (N,) int64; samples are interleaved across classes.
    """
    if num_classes <= 1:
        raise ValueError("need at least 2 classes")
    if samples_per_class <= 0:
        raise ValueError("samples_per_class must be positive")
    rng = np.random.default_rng(seed)
    templates = [
        _class_template(rng, channels, image_size) for _ in range(num_classes)
    ]
    total = num_classes * samples_per_class
    images = np.empty((total, channels, image_size, image_size))
    labels = np.empty(total, dtype=np.int64)
    idx = 0
    for cls in range(num_classes):
        base = templates[cls]
        for _ in range(samples_per_class):
            sample = base.copy()
            if max_shift > 0:
                dy = int(rng.integers(-max_shift, max_shift + 1))
                dx = int(rng.integers(-max_shift, max_shift + 1))
                sample = np.roll(np.roll(sample, dy, axis=-2), dx, axis=-1)
            sample = sample * rng.uniform(0.8, 1.2)
            sample += rng.normal(0.0, noise, size=sample.shape)
            images[idx] = sample
            labels[idx] = cls
            idx += 1
    # Interleave classes so truncated subsets stay balanced.
    order = rng.permutation(total)
    return images[order], labels[order]


def _make_split(
    num_classes: int,
    image_size: int,
    train_per_class: int,
    test_per_class: int,
    noise: float,
    seed: int,
) -> tuple[ArrayDataset, ArrayDataset]:
    """Build train/test ArrayDatasets sharing class templates.

    Train and test are drawn from the same class templates (same seed for
    template construction) but with disjoint sample noise, mimicking an
    i.i.d. split.
    """
    images, labels = make_classification_images(
        num_classes,
        train_per_class + test_per_class,
        image_size=image_size,
        noise=noise,
        seed=seed,
    )
    # Per-class split to keep both sides balanced.
    train_idx, test_idx = [], []
    per_class_seen: dict[int, int] = {}
    for i, lab in enumerate(labels):
        seen = per_class_seen.get(int(lab), 0)
        if seen < train_per_class:
            train_idx.append(i)
        else:
            test_idx.append(i)
        per_class_seen[int(lab)] = seen + 1
    train = ArrayDataset(images[train_idx], labels[train_idx])
    test = ArrayDataset(images[test_idx], labels[test_idx])
    return train, test


def SyntheticCIFAR10(
    train_per_class: int = 100,
    test_per_class: int = 20,
    image_size: int = 32,
    noise: float = 0.6,
    seed: int = 0,
) -> tuple[ArrayDataset, ArrayDataset]:
    """CIFAR-10 stand-in: 10 classes, 3x32x32 (resolution configurable)."""
    return _make_split(10, image_size, train_per_class, test_per_class, noise, seed)


def SyntheticCIFAR100(
    train_per_class: int = 20,
    test_per_class: int = 5,
    image_size: int = 32,
    noise: float = 0.6,
    seed: int = 1,
) -> tuple[ArrayDataset, ArrayDataset]:
    """CIFAR-100 stand-in: 100 classes, 3x32x32."""
    return _make_split(100, image_size, train_per_class, test_per_class, noise, seed)


def SyntheticTinyImageNet(
    train_per_class: int = 10,
    test_per_class: int = 3,
    image_size: int = 64,
    noise: float = 0.6,
    seed: int = 2,
) -> tuple[ArrayDataset, ArrayDataset]:
    """TinyImageNet stand-in: 200 classes, 3x64x64 (resolution configurable)."""
    return _make_split(200, image_size, train_per_class, test_per_class, noise, seed)
