"""Dataset abstractions and a minibatch loader."""

from __future__ import annotations

import numpy as np


class Dataset:
    """Minimal map-style dataset interface."""

    def __len__(self) -> int:
        raise NotImplementedError

    def __getitem__(self, index: int):
        raise NotImplementedError


class ArrayDataset(Dataset):
    """Dataset backed by in-memory arrays of images and integer labels.

    Parameters
    ----------
    images:
        Array of shape (N, C, H, W), float.
    labels:
        Array of shape (N,), integer class indices.
    """

    def __init__(self, images: np.ndarray, labels: np.ndarray):
        images = np.asarray(images, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if images.ndim != 4:
            raise ValueError("images must have shape (N, C, H, W)")
        if labels.ndim != 1 or labels.shape[0] != images.shape[0]:
            raise ValueError("labels must be 1-D and aligned with images")
        self.images = images
        self.labels = labels

    def __len__(self) -> int:
        return self.images.shape[0]

    def __getitem__(self, index: int):
        return self.images[index], self.labels[index]

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1 if len(self.labels) else 0


class DataLoader:
    """Iterates a dataset in shuffled minibatches of stacked arrays.

    Yields ``(images, labels)`` where images has shape (B, C, H, W).
    Shuffling uses the provided generator so epochs are reproducible.
    """

    def __init__(
        self,
        dataset: Dataset,
        batch_size: int,
        shuffle: bool = False,
        rng: np.random.Generator | None = None,
    ):
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.rng = rng or np.random.default_rng()

    def __len__(self) -> int:
        return (len(self.dataset) + self.batch_size - 1) // self.batch_size

    def __iter__(self):
        n = len(self.dataset)
        order = np.arange(n)
        if self.shuffle:
            self.rng.shuffle(order)
        for start in range(0, n, self.batch_size):
            idx = order[start : start + self.batch_size]
            samples = [self.dataset[i] for i in idx]
            images = np.stack([s[0] for s in samples])
            labels = np.array([s[1] for s in samples], dtype=np.int64)
            yield images, labels
