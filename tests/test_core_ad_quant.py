"""Algorithm 1: plans, eqn-3 updates, iteration control."""

import pytest

from repro.api import (
    DataConfig,
    ExperimentConfig,
    FinalTuneStage,
    ModelConfig,
    Pipeline,
    QuantConfig,
    QuantizeStage,
    build_context,
)
from repro.core import ADQuantizer, QuantizationSchedule, Trainer
from repro.density import SaturationDetector
from repro.nn import Adam, CrossEntropyLoss


def make_quantizer(model, schedule=None, saturation=None):
    trainer = Trainer(model, Adam(model.parameters(), lr=3e-3), CrossEntropyLoss())
    return ADQuantizer(
        trainer,
        schedule or QuantizationSchedule(),
        saturation or SaturationDetector(window=2, tolerance=0.5),
    )


class TestSchedule:
    @pytest.mark.parametrize("kwargs", [
        {"initial_bits": 0},
        {"frozen_bits": 0},
        {"max_iterations": 0},
        {"min_epochs_per_iteration": 0},
        {"max_epochs_per_iteration": 1, "min_epochs_per_iteration": 2},
        {"min_bits": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            QuantizationSchedule(**kwargs)

    def test_defaults_match_paper(self):
        sched = QuantizationSchedule()
        assert sched.initial_bits == 16
        assert sched.max_iterations == 4


class TestInitialPlan:
    def test_uniform_bits_with_frozen_ends(self, micro_vgg):
        quantizer = make_quantizer(micro_vgg)
        plan = quantizer.initial_plan()
        assert plan.bit_widths() == [16] * len(micro_vgg.layer_handles())
        assert plan[0].frozen and plan[-1].frozen
        assert not any(spec.frozen for spec in list(plan)[1:-1])

    def test_32_bit_start_keeps_frozen_at_16(self, micro_vgg):
        """Table II(c): 32-bit initial model still lists 16-bit ends."""
        quantizer = make_quantizer(
            micro_vgg, QuantizationSchedule(initial_bits=32, frozen_bits=16)
        )
        plan = quantizer.initial_plan()
        assert plan[0].bits == 16
        assert plan[1].bits == 32
        assert plan[-1].bits == 16


class TestApplyPlan:
    def test_installs_quantizers(self, micro_vgg):
        quantizer = make_quantizer(micro_vgg)
        quantizer.apply_plan(quantizer.initial_plan())
        for handle in micro_vgg.layer_handles():
            assert handle.current_bits() == 16
            if handle.is_conv:
                assert handle.unit.conv.weight_fake_quant is not None

    def test_plan_property_requires_apply(self, micro_vgg):
        quantizer = make_quantizer(micro_vgg)
        with pytest.raises(RuntimeError):
            _ = quantizer.plan

    def test_length_mismatch_rejected(self, micro_vgg, micro_resnet):
        quantizer = make_quantizer(micro_vgg)
        other = make_quantizer(micro_resnet).initial_plan()
        with pytest.raises(ValueError):
            quantizer.apply_plan(other)


class TestEqn3Update:
    def test_rounding(self, micro_vgg):
        """AD {0.9, 0.3, 0.5} on bits {16, 10, 8} -> {14, 3, 4} (paper)."""
        quantizer = make_quantizer(micro_vgg)
        quantizer.apply_plan(quantizer.initial_plan())
        names = micro_vgg.layer_handles().names()
        # Install specific bits on three hidden layers, then update.
        plan = quantizer.plan
        plan.by_name(names[1]).bits = 16
        plan.by_name(names[2]).bits = 10
        plan.by_name(names[3]).bits = 8
        densities = {name: 1.0 for name in names}
        densities[names[1]] = 0.9
        densities[names[2]] = 0.3
        densities[names[3]] = 0.5
        new_plan = quantizer.update_plan(densities)
        assert new_plan.by_name(names[1]).bits == 14
        assert new_plan.by_name(names[2]).bits == 3
        assert new_plan.by_name(names[3]).bits == 4

    def test_frozen_layers_untouched(self, micro_vgg):
        quantizer = make_quantizer(micro_vgg)
        quantizer.apply_plan(quantizer.initial_plan())
        densities = {name: 0.1 for name in micro_vgg.layer_handles().names()}
        new_plan = quantizer.update_plan(densities)
        assert new_plan[0].bits == 16
        assert new_plan[-1].bits == 16

    def test_min_bits_clamp(self, micro_vgg):
        quantizer = make_quantizer(micro_vgg)
        quantizer.apply_plan(quantizer.initial_plan())
        densities = {name: 0.0 for name in micro_vgg.layer_handles().names()}
        new_plan = quantizer.update_plan(densities)
        assert all(spec.bits >= 1 for spec in new_plan)

    def test_ad_one_is_fixed_point(self, micro_vgg):
        quantizer = make_quantizer(micro_vgg)
        quantizer.apply_plan(quantizer.initial_plan())
        densities = {name: 1.0 for name in micro_vgg.layer_handles().names()}
        new_plan = quantizer.update_plan(densities)
        assert new_plan.bit_widths() == quantizer.plan.bit_widths()

    def test_out_of_range_density_rejected(self, micro_vgg):
        quantizer = make_quantizer(micro_vgg)
        quantizer.apply_plan(quantizer.initial_plan())
        densities = {name: 1.0 for name in micro_vgg.layer_handles().names()}
        densities[micro_vgg.layer_handles().names()[1]] = 1.2
        with pytest.raises(ValueError):
            quantizer.update_plan(densities)


def micro_config(**updates) -> ExperimentConfig:
    config = ExperimentConfig(
        model=ModelConfig(arch="vgg11", num_classes=10, width_multiplier=0.0625,
                          image_size=8, seed=0),
        data=DataConfig(train_per_class=2, test_per_class=2, image_size=8,
                        seed=0, train_batch_size=8, test_batch_size=16),
        quant=QuantConfig(max_epochs_per_iteration=3, min_epochs_per_iteration=2,
                          saturation_window=2, saturation_tolerance=0.5),
    )
    return config.evolve(**updates) if updates else config


class TestRun:
    """Algorithm 1 as the pipeline's QuantizeStage runs it."""

    def test_records_and_monotone_bits(self):
        config = micro_config(quant={"max_iterations": 3})
        report = Pipeline([QuantizeStage()]).run(build_context(config))
        assert 1 <= len(report.rows) <= 3
        for row in report.rows:
            assert row.epochs <= 3
            assert 0.0 <= row.total_ad <= 1.0
        # Bit-widths never increase between consecutive iterations.
        for earlier, later in zip(report.rows, report.rows[1:]):
            for b_early, b_late in zip(earlier.bit_widths, later.bit_widths):
                assert b_late <= b_early

    def test_test_loader_accuracy_recorded(self):
        config = micro_config(quant={"max_iterations": 1,
                                     "max_epochs_per_iteration": 2,
                                     "min_epochs_per_iteration": 1})
        ctx = build_context(config)
        report = Pipeline([QuantizeStage()]).run(ctx)
        assert report.rows[0].test_accuracy == ctx.trainer.evaluate(
            ctx.test_loader
        )

    def test_final_epochs_extend_last_record(self):
        config = micro_config(quant={"max_iterations": 1,
                                     "max_epochs_per_iteration": 2,
                                     "min_epochs_per_iteration": 1,
                                     "final_epochs": 2})
        ctx = build_context(config)
        report = Pipeline([QuantizeStage(), FinalTuneStage()]).run(ctx)
        last = report.rows[-1]
        assert last.epochs == 4
        assert ctx.trainer.epochs_completed == 4
        # The row reports the state after the extra epochs.
        assert last.total_ad == ctx.trainer.monitor.total_density()
        assert last.test_accuracy == ctx.trainer.evaluate(ctx.test_loader)

    def test_saturation_breaks_early(self):
        # Huge tolerance -> saturated immediately at the window size.
        config = micro_config(quant={"max_iterations": 1,
                                     "max_epochs_per_iteration": 50,
                                     "min_epochs_per_iteration": 1,
                                     "saturation_tolerance": 0.9})
        report = Pipeline([QuantizeStage()]).run(build_context(config))
        assert report.rows[0].epochs == 2

    def test_skip_quant_follows_destination_for_resnet(self):
        config = micro_config(model={"arch": "resnet18"},
                              quant={"max_iterations": 2,
                                     "max_epochs_per_iteration": 2,
                                     "min_epochs_per_iteration": 1})
        ctx = build_context(config)
        Pipeline([QuantizeStage()]).run(ctx)
        for handle in ctx.model.layer_handles():
            if handle.name.endswith("conv2"):
                block = handle.host
                assert block.skip_quant.bits == handle.current_bits()
