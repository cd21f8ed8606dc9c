"""Datasets, loaders and synthetic generators."""

import numpy as np
import pytest

from repro.data import (
    ArrayDataset,
    DataLoader,
    SyntheticCIFAR10,
    SyntheticCIFAR100,
    SyntheticTinyImageNet,
    make_classification_images,
)


class TestArrayDataset:
    def test_len_and_getitem(self, rng):
        data = ArrayDataset(rng.normal(size=(5, 3, 4, 4)), np.arange(5))
        assert len(data) == 5
        image, label = data[2]
        assert image.shape == (3, 4, 4)
        assert label == 2

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError):
            ArrayDataset(rng.normal(size=(5, 3, 4)), np.arange(5))
        with pytest.raises(ValueError):
            ArrayDataset(rng.normal(size=(5, 3, 4, 4)), np.arange(4))

    def test_num_classes(self):
        data = ArrayDataset(np.zeros((4, 1, 2, 2)), np.array([0, 1, 2, 2]))
        assert data.num_classes == 3

    def test_empty_dataset_has_no_classes(self):
        data = ArrayDataset(np.zeros((0, 1, 2, 2)), np.zeros(0))
        assert len(data) == 0
        assert data.num_classes == 0

    def test_arrays_converted_to_float64_images_and_int64_labels(self):
        data = ArrayDataset(np.ones((2, 1, 2, 2), dtype=np.float32), [0.0, 1.0])
        assert data.images.dtype == np.float64
        assert data.labels.dtype == np.int64


class TestDataLoader:
    def test_batches_cover_dataset(self, tiny_dataset):
        loader = DataLoader(tiny_dataset, batch_size=5)
        total = sum(len(labels) for _, labels in loader)
        assert total == len(tiny_dataset)

    def test_len_counts_the_partial_batch(self, tiny_dataset):
        assert len(DataLoader(tiny_dataset, batch_size=5)) == 4

    def test_shuffle_deterministic_with_seed(self, tiny_dataset):
        first = [
            labels.tolist()
            for _, labels in DataLoader(
                tiny_dataset, 4, shuffle=True, rng=np.random.default_rng(3)
            )
        ]
        second = [
            labels.tolist()
            for _, labels in DataLoader(
                tiny_dataset, 4, shuffle=True, rng=np.random.default_rng(3)
            )
        ]
        assert first == second

    def test_shuffle_changes_order(self, tiny_dataset):
        unshuffled = next(iter(DataLoader(tiny_dataset, 16)))[1]
        shuffled = next(
            iter(DataLoader(tiny_dataset, 16, shuffle=True, rng=np.random.default_rng(0)))
        )[1]
        assert not np.array_equal(unshuffled, shuffled)
        assert sorted(unshuffled) == sorted(shuffled)

    def test_batch_stacking_shape(self, tiny_dataset):
        images, labels = next(iter(DataLoader(tiny_dataset, 8)))
        assert images.shape == (8, 3, 8, 8)
        assert labels.shape == (8,)

    def test_invalid_batch_size(self, tiny_dataset):
        with pytest.raises(ValueError):
            DataLoader(tiny_dataset, 0)

    def test_shuffled_epoch_visits_each_sample_once(self, tiny_dataset):
        loader = DataLoader(tiny_dataset, 5, shuffle=True,
                            rng=np.random.default_rng(1))
        seen = np.concatenate([images[:, 0, 0, 0] for images, _ in loader])
        assert sorted(seen) == sorted(tiny_dataset.images[:, 0, 0, 0])

    def test_each_epoch_reshuffles(self, tiny_dataset):
        loader = DataLoader(tiny_dataset, 16, shuffle=True,
                            rng=np.random.default_rng(2))
        first = next(iter(loader))[0][:, 0, 0, 0]
        second = next(iter(loader))[0][:, 0, 0, 0]
        assert not np.array_equal(first, second)

    def test_unshuffled_batches_follow_dataset_order(self, tiny_dataset):
        images = np.concatenate([b for b, _ in DataLoader(tiny_dataset, 5)])
        assert np.array_equal(images, tiny_dataset.images)

    def test_last_batch_holds_the_remainder(self, tiny_dataset):
        sizes = [len(labels) for _, labels in DataLoader(tiny_dataset, 6)]
        assert sizes == [6, 6, 4]

    @pytest.mark.parametrize("batch_size", [1, 5, 16, 17])
    def test_len_matches_batches_yielded(self, tiny_dataset, batch_size):
        loader = DataLoader(tiny_dataset, batch_size)
        assert len(loader) == sum(1 for _ in loader)


class TestSyntheticGenerator:
    def test_shapes_and_interleaving(self):
        images, labels = make_classification_images(4, 5, image_size=8, seed=0)
        assert images.shape == (20, 3, 8, 8)
        assert sorted(np.bincount(labels)) == [5, 5, 5, 5]

    def test_deterministic(self):
        a_images, a_labels = make_classification_images(3, 4, image_size=8, seed=9)
        b_images, b_labels = make_classification_images(3, 4, image_size=8, seed=9)
        assert np.array_equal(a_images, b_images)
        assert np.array_equal(a_labels, b_labels)

    def test_different_seeds_differ(self):
        a, _ = make_classification_images(3, 4, image_size=8, seed=1)
        b, _ = make_classification_images(3, 4, image_size=8, seed=2)
        assert not np.allclose(a, b)

    def test_class_structure_learnable(self):
        """Same-class samples correlate more than cross-class ones."""
        images, labels = make_classification_images(
            2, 30, image_size=16, noise=0.3, seed=5
        )
        flat = images.reshape(len(images), -1)
        flat = flat - flat.mean(axis=1, keepdims=True)
        flat /= np.linalg.norm(flat, axis=1, keepdims=True)
        sims = flat @ flat.T
        same = sims[labels[:, None] == labels[None, :]].mean()
        cross = sims[labels[:, None] != labels[None, :]].mean()
        assert same > cross + 0.1

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            make_classification_images(1, 5)
        with pytest.raises(ValueError):
            make_classification_images(3, 0)


class TestNamedDatasets:
    def test_cifar10_shapes(self):
        train, test = SyntheticCIFAR10(train_per_class=3, test_per_class=2, image_size=16)
        assert len(train) == 30
        assert len(test) == 20
        assert train[0][0].shape == (3, 16, 16)
        assert train.num_classes == 10

    def test_cifar100_class_count(self):
        train, test = SyntheticCIFAR100(train_per_class=2, test_per_class=1, image_size=8)
        assert train.num_classes == 100
        assert len(train) == 200

    def test_tinyimagenet_default_resolution(self):
        train, _ = SyntheticTinyImageNet(train_per_class=1, test_per_class=1)
        assert train[0][0].shape == (3, 64, 64)
        assert train.num_classes == 200

    def test_split_balanced(self):
        train, test = SyntheticCIFAR10(train_per_class=4, test_per_class=2, image_size=8)
        assert sorted(np.bincount(train.labels)) == [4] * 10
        assert sorted(np.bincount(test.labels)) == [2] * 10

    def test_train_test_disjoint(self):
        train, test = SyntheticCIFAR10(train_per_class=3, test_per_class=3, image_size=8)
        train_set = {train.images[i].tobytes() for i in range(len(train))}
        test_set = {test.images[i].tobytes() for i in range(len(test))}
        assert not train_set & test_set
