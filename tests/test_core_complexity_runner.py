"""Training complexity (eqn. 4) and the Algorithm-1 report rows."""

import pytest

from repro.api import (
    DataConfig,
    ExperimentConfig,
    ModelConfig,
    Pipeline,
    QuantConfig,
    QuantizeStage,
    build_context,
    remove_layer_and_retrain,
)
from repro.core import TrainingComplexity


class TestTrainingComplexity:
    def test_eqn4_math(self):
        tc = TrainingComplexity(baseline_epochs=200)
        tc.add_iteration(1.0, 100)
        tc.add_iteration(4.0, 60)
        assert tc.raw() == pytest.approx(100 + 15)
        assert tc.relative() == pytest.approx(115 / 200)
        assert tc.total_epochs() == 160

    def test_reduced_training_beats_baseline(self):
        """Paper: TC drops below 1x (e.g. 0.524x for VGG19/CIFAR-10)."""
        tc = TrainingComplexity(baseline_epochs=210)
        tc.add_iteration(1.0, 100)
        tc.add_iteration(7.0, 70)
        assert tc.relative() < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainingComplexity(0)
        tc = TrainingComplexity(10)
        with pytest.raises(ValueError):
            tc.add_iteration(0.0, 5)
        with pytest.raises(ValueError):
            tc.add_iteration(1.0, -1)
        with pytest.raises(RuntimeError):
            tc.raw()


def micro_config(**updates) -> ExperimentConfig:
    config = ExperimentConfig(
        name="micro",
        architecture="VGG11",
        dataset="tiny",
        model=ModelConfig(arch="vgg11", num_classes=10, width_multiplier=0.0625,
                          image_size=8, seed=0),
        data=DataConfig(dataset="synthetic-cifar10", train_per_class=2,
                        test_per_class=2, image_size=8, seed=0,
                        train_batch_size=8, test_batch_size=16),
        quant=QuantConfig(max_iterations=2, max_epochs_per_iteration=3,
                          min_epochs_per_iteration=2, saturation_window=2,
                          saturation_tolerance=0.5),
    )
    return config.evolve(**updates) if updates else config


@pytest.fixture
def quantized():
    """A context after a two-iteration Algorithm-1 run, and its report."""
    ctx = build_context(micro_config())
    report = Pipeline([QuantizeStage()]).run(ctx)
    return ctx, report


def shape_preserving_conv(ctx) -> str:
    return next(
        h.name for h in ctx.model.layer_handles()
        if h.is_conv and h.unit.conv.in_channels == h.unit.conv.out_channels
    )


class TestAlgorithmOneReport:
    def test_report_structure(self, quantized):
        _, report = quantized
        assert report.architecture == "VGG11"
        assert len(report.rows) == 2
        row = report.rows[0]
        assert row.energy_efficiency == pytest.approx(1.0)
        assert row.train_complexity == pytest.approx(1.0)
        assert len(row.bit_widths) == 9

    def test_second_row_quantized(self, quantized):
        _, report = quantized
        second = report.rows[1]
        assert second.energy_efficiency >= 1.0
        hidden_bits = second.bit_widths[1:-1]
        assert any(b < 16 for b in hidden_bits)
        # Frozen ends stay 16-bit.
        assert second.bit_widths[0] == 16
        assert second.bit_widths[-1] == 16

    def test_format_renders(self, quantized):
        _, report = quantized
        text = report.format()
        assert "VGG11 on tiny" in text
        assert "Energy Eff" in text

    def test_remove_layer_and_retrain(self, quantized):
        ctx, report = quantized
        rows_before = list(report.rows)
        row = remove_layer_and_retrain(ctx, shape_preserving_conv(ctx), epochs=1)
        assert row.label == "2a"
        # Numbered one past the last reported row, like a PruneStage row.
        assert row.iteration == rows_before[-1].iteration + 1 == 3
        assert len(row.bit_widths) == len(rows_before[0].bit_widths) - 1
        assert row.energy_efficiency > rows_before[-1].energy_efficiency * 0.99
        # Returned, not appended: the caller places the row.
        assert report.rows == rows_before

    def test_remove_layer_before_run_raises_runtime_error(self):
        ctx = build_context(micro_config())
        with pytest.raises(RuntimeError, match="run\\(\\) must be called first"):
            remove_layer_and_retrain(ctx, shape_preserving_conv(ctx), epochs=1)

    def test_remove_layer_rejects_shape_changers(self, quantized):
        ctx, _ = quantized
        with pytest.raises(ValueError):
            remove_layer_and_retrain(ctx, "fc", epochs=1)
        shape_changer = next(
            h.name
            for h in ctx.model.layer_handles()
            if h.is_conv and h.unit.conv.in_channels != h.unit.conv.out_channels
        )
        with pytest.raises(ValueError):
            remove_layer_and_retrain(ctx, shape_changer, epochs=1)

    def test_pruning_mode_reports_channels(self):
        config = micro_config(
            architecture="ResNet18",
            model={"arch": "resnet18"},
            quant={"max_epochs_per_iteration": 2, "min_epochs_per_iteration": 1,
                   "saturation_tolerance": 0.9},
            prune={"enabled": True},
        )
        report = Pipeline([QuantizeStage()]).run(build_context(config))
        assert len(report.rows) == 2
        first = report.rows[0].channel_counts
        second = report.rows[1].channel_counts
        assert first is not None
        assert all(b <= a for a, b in zip(first, second))
        assert "nChannels" in report.format()
