"""Determinism: identical seeds must give identical experiments.

A reproduction artifact is only useful if its numbers are stable; these
tests lock the full pipeline (data generation, init, training, AD
measurement, Algorithm 1) to the seed.
"""

from repro.api import (
    DataConfig,
    ExperimentConfig,
    ModelConfig,
    Pipeline,
    QuantConfig,
    QuantizeStage,
    build_context,
)


def run_small_experiment(seed: int):
    config = ExperimentConfig(
        name="determinism",
        architecture="VGG11",
        dataset="SyntheticCIFAR10",
        model=ModelConfig(arch="vgg11", num_classes=10, width_multiplier=0.0625,
                          image_size=8, seed=seed),
        data=DataConfig(dataset="synthetic-cifar10", train_per_class=6,
                        test_per_class=2, image_size=8, seed=seed,
                        train_batch_size=15, test_batch_size=20),
        quant=QuantConfig(max_iterations=2, max_epochs_per_iteration=3,
                          min_epochs_per_iteration=2, saturation_window=2,
                          saturation_tolerance=0.5),
    )
    return Pipeline([QuantizeStage()]).run(build_context(config))


class TestExperimentDeterminism:
    def test_identical_seeds_identical_reports(self):
        a = run_small_experiment(31)
        b = run_small_experiment(31)
        assert len(a.rows) == len(b.rows)
        for row_a, row_b in zip(a.rows, b.rows):
            assert row_a.bit_widths == row_b.bit_widths
            assert row_a.test_accuracy == row_b.test_accuracy
            assert row_a.total_ad == row_b.total_ad
            assert row_a.energy_efficiency == row_b.energy_efficiency
            assert row_a.train_complexity == row_b.train_complexity

    def test_different_seeds_differ(self):
        a = run_small_experiment(31)
        b = run_small_experiment(32)
        assert any(
            row_a.total_ad != row_b.total_ad
            for row_a, row_b in zip(a.rows, b.rows)
        )
