"""Algorithm-1 iteration semantics (regression tests for subtle bugs).

The most important one: the quantize stage must never install an eqn.-3
plan that will not subsequently be trained — otherwise follow-up steps
(row 2a retraining, final evaluation) run on an untrained plan.
"""

import pytest

from repro.api import (
    DataConfig,
    ExperimentConfig,
    ModelConfig,
    Pipeline,
    QuantConfig,
    QuantizeStage,
    build_context,
    experiments,
)


def micro_config(**updates) -> ExperimentConfig:
    config = ExperimentConfig(
        name="micro",
        architecture="VGG11",
        dataset="SyntheticCIFAR10",
        model=ModelConfig(arch="vgg11", num_classes=10, width_multiplier=0.0625,
                          image_size=8, seed=0),
        data=DataConfig(dataset="synthetic-cifar10", train_per_class=2,
                        test_per_class=2, image_size=8, seed=0,
                        train_batch_size=8, test_batch_size=16),
        quant=QuantConfig(max_iterations=2, max_epochs_per_iteration=2,
                          min_epochs_per_iteration=1, saturation_window=2,
                          saturation_tolerance=0.9),
    )
    return config.evolve(**updates) if updates else config


class TestPlanInstallationSemantics:
    def test_installed_plan_matches_last_row(self):
        """After the run, the model carries the last *reported* plan, not
        the would-be next iteration's plan."""
        ctx = build_context(micro_config())
        report = Pipeline([QuantizeStage()]).run(ctx)
        assert ctx.quantizer.plan.bit_widths() == report.rows[-1].bit_widths

    def test_model_quantizers_match_report(self):
        ctx = build_context(micro_config())
        report = Pipeline([QuantizeStage()]).run(ctx)
        for handle, bits in zip(ctx.model.layer_handles(),
                                report.rows[-1].bit_widths):
            assert handle.current_bits() == bits

    def test_pruner_not_applied_beyond_last_row(self):
        ctx = build_context(micro_config(prune={"enabled": True}))
        report = Pipeline([QuantizeStage()]).run(ctx)
        final_channels = report.rows[-1].channel_counts
        live_channels = [
            h.active_channels() for h in ctx.pruner.prunable_handles()
        ]
        assert live_channels == final_channels

    def test_complexity_accumulates_across_rows(self):
        ctx = build_context(micro_config())
        report = Pipeline([QuantizeStage()]).run(ctx)
        assert len(report.rows) == 2
        # Cumulative eqn-4 complexity strictly grows with iterations.
        assert report.rows[1].train_complexity > 0
        raw_epochs = sum(r.epochs for r in report.rows)
        assert ctx.complexity.total_epochs() == raw_epochs

    def test_rows_have_monotone_iteration_numbers(self):
        config = micro_config(quant={"max_iterations": 3})
        report = Pipeline([QuantizeStage()]).run(build_context(config))
        numbers = [row.iteration for row in report.rows]
        assert numbers == sorted(numbers)
        assert numbers[0] == 1


class TestFinalEpochs:
    def test_final_epochs_extends_last_row(self):
        config = micro_config(quant={"max_iterations": 1, "final_epochs": 3})
        report = experiments.Experiment(config).run()
        assert report.rows[-1].epochs == 2 + 3


class TestBaselineSemantics:
    def test_baseline_profiles_are_initial_plan(self):
        """Row 1 efficiency is exactly 1.0 because the baseline is the
        iteration-1 plan itself (paper: 'Energy Efficiency 1x')."""
        config = micro_config(quant={"max_iterations": 1})
        report = Pipeline([QuantizeStage()]).run(build_context(config))
        assert report.rows[0].energy_efficiency == pytest.approx(1.0)

    def test_32bit_baseline_reference(self):
        config = micro_config(quant={"initial_bits": 32, "max_iterations": 1})
        report = Pipeline([QuantizeStage()]).run(build_context(config))
        assert report.rows[0].bit_widths[1] == 32
        assert report.rows[0].bit_widths[0] == 16  # frozen ends
        assert report.rows[0].energy_efficiency == pytest.approx(1.0)
