"""Registry: presets resolve, build end-to-end, overrides apply."""

import pytest

from repro.api import ExperimentConfig, experiments
from repro.api.experiments import default_pipeline

PAPER_PRESETS = {
    "vgg19-cifar10-quant": "Table II(a)",
    "resnet18-cifar100-quant": "Table II(b)",
    "resnet18-tinyimagenet-quant": "Table II(c)",
    "vgg19-cifar10-quant-prune": "Table III(a)",
    "resnet18-cifar100-quant-prune": "Table III(b)",
}


class TestRegistry:
    def test_paper_presets_registered(self):
        for name in PAPER_PRESETS:
            assert name in experiments.names()

    def test_presets_map_to_paper_tables(self):
        for name, table in PAPER_PRESETS.items():
            assert table in experiments.get_config(name).tables

    def test_all_presets_resolve_to_valid_configs(self):
        for name in experiments.names():
            config = experiments.get_config(name)
            assert isinstance(config, ExperimentConfig)
            assert config.name == name

    def test_unknown_preset_raises_with_catalogue(self):
        with pytest.raises(KeyError, match="available"):
            experiments.get_config("vgg99-mnist")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            experiments.register(experiments.get_config("quickstart-vgg11"))


class TestDefaultPipeline:
    def test_quant_only(self):
        pipeline = default_pipeline(experiments.get_config("vgg19-cifar10-quant"))
        assert [s.name for s in pipeline.stages] == ["quantize", "energy-report"]

    def test_fused_prune_has_no_prune_stage(self):
        pipeline = default_pipeline(
            experiments.get_config("vgg19-cifar10-quant-prune")
        )
        assert "prune" not in [s.name for s in pipeline.stages]

    def test_unfused_prune_appends_prune_stage(self):
        config = experiments.get_config("vgg19-cifar10-quant-prune").evolve(
            prune={"fused": False, "retrain_epochs": 1}
        )
        names = [s.name for s in default_pipeline(config).stages]
        assert names.index("quantize") < names.index("prune")

    def test_final_epochs_adds_final_tune(self):
        config = experiments.get_config("vgg19-cifar10-quant").evolve(
            quant={"final_epochs": 2}
        )
        assert "final-tune" in [s.name for s in default_pipeline(config).stages]

    def test_pim_flag_adds_pim_stage(self):
        names = [
            s.name
            for s in default_pipeline(experiments.get_config("vgg11-micro-smoke")).stages
        ]
        assert "pim-eval" in names


class TestBuildAndRun:
    def test_build_applies_nested_overrides(self):
        experiment = experiments.build(
            "vgg19-cifar10-quant", quant={"max_iterations": 1}, lr=1e-3
        )
        assert experiment.config.quant.max_iterations == 1
        assert experiment.config.lr == 1e-3
        # The preset itself must stay pristine.
        assert experiments.get_config("vgg19-cifar10-quant").quant.max_iterations == 3

    def test_run_twice_restarts_with_fresh_report(self):
        experiment = experiments.build("vgg11-micro-smoke")
        first = experiment.run()
        second = experiment.run()
        assert second is not first
        iterations = [row.iteration for row in second.rows]
        assert iterations == sorted(set(iterations))  # no duplicated sequence
        assert len(second.rows) <= experiment.config.quant.max_iterations
        # The initial plan is re-applied; trained weights persist.
        assert second.rows[0].bit_widths == first.rows[0].bit_widths
        assert second.rows[0].energy_efficiency == 1.0

    def test_run_callbacks_are_per_run(self):
        from repro.api import PipelineCallback

        class Counter(PipelineCallback):
            def __init__(self):
                self.fired = 0

            def on_pipeline_end(self, ctx, report):
                self.fired += 1

        counter = Counter()
        experiment = experiments.build("vgg11-micro-smoke")
        experiment.run(callbacks=[counter])
        experiment.run(callbacks=[counter])
        # Two runs, one registration each: the callback must not have
        # been permanently appended (which would double-fire hooks).
        assert counter.fired == 2
        assert experiment.pipeline.callbacks == []

    def test_micro_smoke_preset_runs_end_to_end(self):
        experiment = experiments.build("vgg11-micro-smoke")
        report = experiment.run()
        assert report.rows
        assert report.rows[0].energy_efficiency == 1.0
        assert "analytical_energy" in experiment.artifacts
        assert "pim_energy" in experiment.artifacts
        # Convenience accessors point into the context.
        assert experiment.model is experiment.context.model
        assert experiment.report is report
