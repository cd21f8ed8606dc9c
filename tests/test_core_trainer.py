"""Trainer: loss decrease, density collection, evaluation."""

import numpy as np
import pytest

from repro.core import Trainer
from repro.data import ArrayDataset, DataLoader
from repro.nn import Adam, CrossEntropyLoss


def make_trainer(model, lr=3e-3):
    return Trainer(model, Adam(model.parameters(), lr=lr), CrossEntropyLoss())


class TestTrainEpoch:
    def test_stats_fields(self, micro_vgg, tiny_loader):
        trainer = make_trainer(micro_vgg)
        stats = trainer.train_epoch(tiny_loader)
        assert stats.epoch == 0
        assert stats.loss > 0
        assert 0.0 <= stats.accuracy <= 1.0
        assert set(stats.densities) == set(micro_vgg.layer_handles().names())

    def test_loss_decreases_over_epochs(self, micro_vgg, tiny_loader):
        trainer = make_trainer(micro_vgg)
        losses = [trainer.train_epoch(tiny_loader).loss for _ in range(8)]
        assert losses[-1] < losses[0]

    def test_density_recorded_per_epoch(self, micro_vgg, tiny_loader):
        trainer = make_trainer(micro_vgg)
        trainer.fit(tiny_loader, epochs=3)
        assert trainer.monitor.num_epochs == 3

    def test_densities_in_unit_interval(self, micro_vgg, tiny_loader):
        trainer = make_trainer(micro_vgg)
        stats = trainer.train_epoch(tiny_loader)
        assert all(0.0 <= d <= 1.0 for d in stats.densities.values())

    def test_ctx_disabled_after_epoch(self, micro_vgg, tiny_loader):
        trainer = make_trainer(micro_vgg)
        trainer.train_epoch(tiny_loader)
        assert not micro_vgg.ctx.enabled

    def test_epochs_counter(self, micro_vgg, tiny_loader):
        trainer = make_trainer(micro_vgg)
        trainer.fit(tiny_loader, epochs=2)
        assert trainer.epochs_completed == 2
        assert len(trainer.history) == 2

    def test_empty_loader_raises(self, micro_vgg, tiny_dataset):
        trainer = make_trainer(micro_vgg)
        empty = DataLoader(
            ArrayDataset(np.zeros((0, 3, 8, 8)), np.zeros(0, dtype=int)),
            batch_size=5,
        )
        with pytest.raises(RuntimeError):
            trainer.train_epoch(empty)


class TestEvaluate:
    def test_accuracy_range_and_restores_train_mode(self, micro_vgg, tiny_loader):
        trainer = make_trainer(micro_vgg)
        acc = trainer.evaluate(tiny_loader)
        assert 0.0 <= acc <= 1.0
        assert micro_vgg.training

    def test_learns_tiny_dataset(self, micro_vgg, tiny_loader, tiny_dataset, rng):
        trainer = make_trainer(micro_vgg, lr=5e-3)
        trainer.fit(tiny_loader, epochs=25)
        eval_loader = DataLoader(tiny_dataset, batch_size=16)
        assert trainer.evaluate(eval_loader) >= 0.75


class TestMeasureDensity:
    def test_returns_all_layers(self, micro_vgg, tiny_loader):
        trainer = make_trainer(micro_vgg)
        densities = trainer.measure_density(tiny_loader)
        assert set(densities) == set(micro_vgg.layer_handles().names())

    def test_max_batches_limits_count(self, micro_vgg, tiny_loader):
        trainer = make_trainer(micro_vgg)
        trainer.measure_density(tiny_loader, max_batches=1)
        counts = trainer.layer_activation_counts()
        first_conv = micro_vgg.layer_handles()[0]
        # One batch of 8 through a 8x8 conv with padding -> 8*C*64 values.
        assert counts[first_conv.name] == 8 * first_conv.out_channels * 64

    def test_does_not_touch_monitor(self, micro_vgg, tiny_loader):
        trainer = make_trainer(micro_vgg)
        trainer.measure_density(tiny_loader)
        assert trainer.monitor.num_epochs == 0
